package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"dimatch"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// routingTestCluster holds well-separated stores: each station's residents
// cluster around a distinct magnitude, so a single-target query admits
// exactly one station.
func routingTestCluster(t *testing.T) *dimatch.Cluster {
	t.Helper()
	data := map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		0: {10: {1, 2, 3}, 11: {2, 1, 2}},
		1: {20: {50, 60, 70}, 21: {55, 66, 77}},
		2: {30: {500, 600, 700}},
		3: {40: {5000, 6000, 7000}},
	}
	c, err := newFromData(dimatch.Options{}, data)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	return c
}

// TestRoutedSearchPrunesAndMatchesFullFanOut is the tentpole's core pin: a
// routed search answers exactly like full fan-out while visiting only the
// stations that can report.
func TestRoutedSearchPrunesAndMatchesFullFanOut(t *testing.T) {
	c := routingTestCluster(t)
	ctx := context.Background()
	queries := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{50, 60, 70}}}}

	full, err := c.Search(ctx, queries, dimatch.WithRouting(dimatch.RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	if full.Cost.StationsPruned != 0 || full.Cost.SummaryRefreshes != 0 {
		t.Fatalf("full fan-out reported routing work: %+v", full.Cost)
	}
	if full.Cost.MessagesDown != 4 {
		t.Fatalf("full MessagesDown = %d, want 4", full.Cost.MessagesDown)
	}
	// Recall 1 on the reference, so "equal to full fan-out" below means the
	// target is found, not that both sides found nothing.
	if res := full.PerQuery[1]; len(res) == 0 || res[0].Person != 20 || res[0].Score() != 1.0 {
		t.Fatalf("full fan-out did not retrieve person 20 at full score: %v", res)
	}

	routed, err := c.Search(ctx, queries) // routing is the default
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "routed", queries, full, routed)
	if routed.Cost.StationsPruned != 3 {
		t.Fatalf("StationsPruned = %d, want 3 (only station 1 can answer)", routed.Cost.StationsPruned)
	}
	if routed.Cost.MessagesDown != 1 {
		t.Fatalf("routed MessagesDown = %d, want 1", routed.Cost.MessagesDown)
	}
	if routed.Cost.SummaryRefreshes != 4 || routed.Cost.SummaryBytesUp == 0 {
		t.Fatalf("first routed search should refresh all 4 summaries: %+v", routed.Cost)
	}

	// The cache is warm now: the next routed search refreshes nothing.
	warm, err := c.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "warm", queries, full, warm)
	if warm.Cost.SummaryRefreshes != 0 || warm.Cost.StationsPruned != 3 || warm.Cost.MessagesDown != 1 {
		t.Fatalf("warm routed search: %+v", warm.Cost)
	}
	// Planning is one digest evaluation per (probe, station), over the four
	// digests the cache now holds.
	if warm.Cost.SubtreeProbes != 4 {
		t.Fatalf("warm routed search: SubtreeProbes = %d, want 4", warm.Cost.SubtreeProbes)
	}
	if st := c.RoutingState(); st.Entries != 4 || st.TotalBytes() == 0 || st.TotalBytes() != st.CachedDigestBytes {
		t.Fatalf("RoutingState after routed searches: %+v", st)
	}
}

// TestRoutedMatchesFullAtEverySampleCount pins routing soundness across the
// Params.Samples axis at the deployment's pattern length, 24: a digest covers
// only the default sample positions (1, 3, …, 23), so searches sampling 8 or
// 24 positions probe bands at positions it does not cover, which must count
// as hits. At every sample count the routed answer equals RoutingFull's —
// for exact, perturbed and split-person queries — and the full answer finds
// every exact target, so equality is not two empty answers. The WBF is
// position-salted: unsalted, a 24-position query's ε bands cover most of the
// value range and full fan-out reports unrelated residents at full weight,
// which a routing digest rightly prunes. The routed searches must also prune
// some station between them: a plan that prunes every station falls back to
// full fan-out, so a digest that wrongly denied them all would pass on
// equality alone.
func TestRoutedMatchesFullAtEverySampleCount(t *testing.T) {
	const length, stations, residents = 24, 8, 25
	rng := rand.New(rand.NewSource(24))
	row := func() dimatch.Pattern {
		p := make(dimatch.Pattern, length)
		for g := range p {
			p[g] = rng.Int63n(40)
		}
		p[rng.Intn(length)]++
		return p
	}
	data := make(map[uint32]map[dimatch.PersonID]dimatch.Pattern)
	for id := uint32(0); id < stations; id++ {
		data[id] = make(map[dimatch.PersonID]dimatch.Pattern)
		for j := 0; j < residents; j++ {
			data[id][dimatch.PersonID(100*id+uint32(j)+1)] = row()
		}
	}
	// Persons 9001–9003 are split: one piece on each of two stations.
	for p := dimatch.PersonID(9001); p <= 9003; p++ {
		a := uint32(rng.Intn(stations))
		b := (a + 1 + uint32(rng.Intn(stations-1))) % stations
		data[a][p], data[b][p] = row(), row()
	}
	var queries []dimatch.Query
	exact := make(map[dimatch.QueryID]dimatch.PersonID)
	for i := 0; i < 6; i++ {
		id := uint32(rng.Intn(stations))
		p := dimatch.PersonID(100*id + uint32(rng.Intn(residents)) + 1)
		q := dimatch.Query{ID: dimatch.QueryID(len(queries) + 1), Locals: []dimatch.Pattern{data[id][p].Clone()}}
		exact[q.ID] = p
		queries = append(queries, q)
		near := data[id][p].Clone()
		near[rng.Intn(length)]++ // one cell off: within ε = 1 at every position
		queries = append(queries, dimatch.Query{ID: dimatch.QueryID(len(queries) + 1), Locals: []dimatch.Pattern{near}})
	}
	for p := dimatch.PersonID(9001); p <= 9003; p++ {
		var locals []dimatch.Pattern
		for id := uint32(0); id < stations; id++ {
			if l, ok := data[id][p]; ok {
				locals = append(locals, l.Clone())
			}
		}
		q := dimatch.Query{ID: dimatch.QueryID(len(queries) + 1), Locals: locals}
		exact[q.ID] = p
		queries = append(queries, q)
	}
	for _, samples := range []int{3, 8, 12, 24} {
		t.Run(fmt.Sprint("samples=", samples), func(t *testing.T) {
			c, err := newFromData(dimatch.Options{Params: dimatch.Params{Samples: samples, Epsilon: 1, Seed: 3, PositionSalted: true}}, data)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Shutdown() })
			ctx := context.Background()
			pruned := 0
			for _, q := range queries {
				one := []dimatch.Query{q}
				full, err := c.Search(ctx, one, dimatch.WithRouting(dimatch.RoutingFull))
				if err != nil {
					t.Fatal(err)
				}
				if p, ok := exact[q.ID]; ok && !slices.ContainsFunc(full.PerQuery[q.ID], func(r dimatch.Result) bool { return r.Person == p && r.Score() == 1 }) {
					t.Fatalf("full fan-out missed person %d for query %d: %v", p, q.ID, full.PerQuery[q.ID])
				}
				routed, err := c.Search(ctx, one)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, "routed", one, full, routed)
				pruned += routed.Cost.StationsPruned
			}
			if pruned == 0 {
				t.Fatal("no routed search pruned a station: the equality would hold for full fan-out alone")
			}
		})
	}
}

// TestRoutedBatchUnionsQueryAdmits: a batch visits the union of its
// queries' admitting stations — pruning is per batch, not per query.
func TestRoutedBatchUnionsQueryAdmits(t *testing.T) {
	c := routingTestCluster(t)
	ctx := context.Background()
	queries := []dimatch.Query{
		{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3}}},
		{ID: 2, Locals: []dimatch.Pattern{{500, 600, 700}}},
	}
	full, err := c.Search(ctx, queries, dimatch.WithRouting(dimatch.RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	routed, err := c.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "union", queries, full, routed)
	if routed.Cost.StationsPruned != 2 {
		t.Fatalf("StationsPruned = %d, want 2 (stations 0 and 2 admit)", routed.Cost.StationsPruned)
	}
}

// TestRoutingFallsBackWhenNothingAdmits pins the empty-candidate fallback:
// a query matching no station must run a full fan-out (stale summaries must
// never turn a search into a silent no-op), not a zero-station one.
func TestRoutingFallsBackWhenNothingAdmits(t *testing.T) {
	c := routingTestCluster(t)
	ctx := context.Background()
	queries := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{999999, 1, 1}}}}
	out, err := c.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerQuery[1]) != 0 {
		t.Fatalf("impossible query matched %v", out.PerQuery[1])
	}
	if out.Cost.StationsPruned != 0 {
		t.Fatalf("StationsPruned = %d, want 0 (all-pruned plans fall back to full fan-out)", out.Cost.StationsPruned)
	}
	if out.Cost.MessagesDown != 4 {
		t.Fatalf("MessagesDown = %d, want 4 (full fallback)", out.Cost.MessagesDown)
	}
}

// TestIngestDeltaUpdatesSummary pins the freshness contract on the ingest
// side: a person ingested onto a station the warm cache prunes must be
// found by the very next routed search, without a summary refetch (the
// cached digest absorbs the delta).
func TestIngestDeltaUpdatesSummary(t *testing.T) {
	c := routingTestCluster(t)
	ctx := context.Background()
	probe := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{7, 8, 9}}}}

	// Warm the summary cache; nothing matches {7,8,9} yet.
	if _, err := c.Search(ctx, probe); err != nil {
		t.Fatal(err)
	}
	// Station 3 (residents around 6000) is prunable for this query; land
	// the newcomer there.
	if err := c.Ingest(ctx, 3, map[dimatch.PersonID]dimatch.Pattern{99: {7, 8, 9}}); err != nil {
		t.Fatal(err)
	}
	out, err := c.Search(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerQuery[1]) != 1 || out.PerQuery[1][0].Person != 99 {
		t.Fatalf("ingested person not found by routed search: %v", out.PerQuery[1])
	}
	if out.Cost.SummaryRefreshes != 0 {
		t.Fatalf("SummaryRefreshes = %d, want 0 (ingest delta-updates the cached digest)", out.Cost.SummaryRefreshes)
	}
	if out.Cost.StationsPruned == 0 {
		t.Fatal("unrelated stations should still be pruned after the delta update")
	}
}

// TestEvictInvalidatesSummary pins the eviction side: the digest is dropped
// (next routed search refetches) and the evicted person stays gone; the
// interim staleness can only waste probes, never resurrect results.
func TestEvictInvalidatesSummary(t *testing.T) {
	c := routingTestCluster(t)
	ctx := context.Background()
	queries := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{500, 600, 700}}}}

	if _, err := c.Search(ctx, queries); err != nil { // warm cache
		t.Fatal(err)
	}
	if err := c.Evict(ctx, 2, []dimatch.PersonID{30}); err != nil {
		t.Fatal(err)
	}
	out, err := c.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerQuery[1]) != 0 {
		t.Fatalf("evicted person still retrieved: %v", out.PerQuery[1])
	}
	if out.Cost.SummaryRefreshes != 1 {
		t.Fatalf("SummaryRefreshes = %d, want 1 (evict invalidates station 2's digest)", out.Cost.SummaryRefreshes)
	}
}

// flakyStatsLink is a center-side link that counts the stats requests sent
// over it and fails the second — the first after the join handshake — at
// send time, while every other frame passes.
type flakyStatsLink struct {
	dimatch.Link
	stats atomic.Int32
}

func (l *flakyStatsLink) Send(m wire.Message) error {
	if m.Kind == wire.KindStats && l.stats.Add(1) == 2 {
		return errors.New("injected stats send failure")
	}
	return l.Link.Send(m)
}

// flakyStatsStation serves a real station behind a flakyStatsLink and returns
// the center's end.
func flakyStatsStation(id uint32, locals map[dimatch.PersonID]dimatch.Pattern) dimatch.Link {
	center, stationEnd := transport.Pipe(nil, nil)
	go func() { _ = dimatch.ServeStation(id, locals, stationEnd) }()
	return &flakyStatsLink{Link: center}
}

// TestStationWithoutStatsEntryIsPlain: the join handshake is the one stats
// exchange a station ever sees, so a station whose link would fail any later
// stats request is searched with batch frames, summary-fetched and prunable
// like any other, and results stay byte-equal to full fan-out.
func TestStationWithoutStatsEntryIsPlain(t *testing.T) {
	links := map[uint32]dimatch.Link{
		2: flakyStatsStation(2, map[dimatch.PersonID]dimatch.Pattern{20: {50, 60, 70}}),
	}
	for id, locals := range map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		1: {10: {1, 2, 3}},
		3: {30: {500, 600, 700}},
	} {
		center, stationEnd := transport.Pipe(nil, nil)
		go func(id uint32, locals map[dimatch.PersonID]dimatch.Pattern) {
			_ = dimatch.ServeStation(id, locals, stationEnd)
		}(id, locals)
		links[id] = center
	}
	c, err := dimatch.NewCluster(dimatch.Options{}, 3, linkMembers(links)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()

	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}

	onFlaky := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{50, 60, 70}}}}
	elsewhere := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3}}}}
	for _, queries := range [][]dimatch.Query{onFlaky, elsewhere} {
		full, err := c.Search(ctx, queries, dimatch.WithRouting(dimatch.RoutingFull))
		if err != nil {
			t.Fatal(err)
		}
		routed, err := c.Search(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(routed.PerQuery, full.PerQuery) || len(full.PerQuery[1]) != 1 {
			t.Fatalf("routed %v, full fan-out %v", routed.PerQuery, full.PerQuery)
		}
		// Either way exactly one station admits: station 2 is visited
		// when it holds the match and pruned when it does not.
		if routed.Cost.StationsPruned != 2 || routed.Cost.StationsFailed != 0 {
			t.Fatalf("pruned %d failed %d, want 2 and 0", routed.Cost.StationsPruned, routed.Cost.StationsFailed)
		}
	}
	if n := links[2].(*flakyStatsLink).stats.Load(); n != 1 {
		t.Fatalf("station 2's link carried %d stats frames, want 1 (the join's)", n)
	}
}

// TestRoutingPlacedReplicas: routed searches on a placement-first cluster
// dedupe replicas exactly like full fan-out and visit only the replica
// holders.
func TestRoutingPlacedReplicas(t *testing.T) {
	c, err := dimatch.NewCluster(dimatch.Options{}, 3, emptyMembers([]uint32{1, 2, 3, 4, 5, 6})...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()

	patterns := make(map[dimatch.PersonID]dimatch.Pattern)
	for p := dimatch.PersonID(1); p <= 30; p++ {
		patterns[p] = dimatch.Pattern{int64(p) * 10, int64(p), int64(p) * 3}
	}
	if err := c.Place(ctx, patterns, dimatch.WithReplication(2)); err != nil {
		t.Fatal(err)
	}

	queries := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{patterns[17]}}}
	full, err := c.Search(ctx, queries, dimatch.WithRouting(dimatch.RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	routed, err := c.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "placed", queries, full, routed)
	if len(routed.PerQuery[1]) == 0 {
		t.Fatal("placed person not found")
	}
	r := routed.PerQuery[1][0]
	if r.Person != 17 || r.Score() != 1.0 {
		t.Fatalf("replica dedup broke under routing: %+v", r)
	}
	if routed.Cost.StationsPruned < 3 {
		t.Fatalf("StationsPruned = %d, want most of the 6 stations (R=2 replicas)", routed.Cost.StationsPruned)
	}
}

// TestRoutingSurvivesDeadStation: a station killed after the cache warmed
// stays in the plan (its summary admits), fails the exchange, and is
// counted in StationsFailed exactly like an unrouted search would.
func TestRoutingSurvivesDeadStation(t *testing.T) {
	c := routingTestCluster(t)
	ctx := context.Background()
	queries := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{50, 60, 70}}}}
	if _, err := c.Search(ctx, queries); err != nil { // warm
		t.Fatal(err)
	}
	if err := c.KillStation(1); err != nil {
		t.Fatal(err)
	}
	out, err := c.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerQuery[1]) != 0 {
		t.Fatalf("dead station's residents retrieved: %v", out.PerQuery[1])
	}
	if out.Cost.StationsFailed != 1 {
		t.Fatalf("StationsFailed = %d, want 1", out.Cost.StationsFailed)
	}
}

// TestParseRoutingMode pins the CLI surface.
func TestParseRoutingMode(t *testing.T) {
	for in, want := range map[string]dimatch.RoutingMode{"summary": dimatch.RoutingSummary, " FULL ": dimatch.RoutingFull} {
		got, err := dimatch.ParseRoutingMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseRoutingMode(%q) = %v, %v", in, got, err)
		}
	}
	// "tree" named the in-coordinator digest tree, deleted with its mode.
	for _, bad := range []string{"sideways", "tree"} {
		if _, err := dimatch.ParseRoutingMode(bad); !errors.Is(err, dimatch.ErrUnknownRouting) {
			t.Fatalf("ParseRoutingMode(%q) err = %v, want ErrUnknownRouting", bad, err)
		}
	}
	if dimatch.RoutingSummary.String() != "summary" || dimatch.RoutingFull.String() != "full" {
		t.Fatal("RoutingMode.String drifted")
	}
}
