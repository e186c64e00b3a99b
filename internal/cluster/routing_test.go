package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// routingTestCluster holds well-separated stores: each station's residents
// cluster around a distinct magnitude, so a single-target query admits
// exactly one station.
func routingTestCluster(t *testing.T) *Cluster {
	t.Helper()
	data := map[uint32]map[core.PersonID]pattern.Pattern{
		0: {10: {1, 2, 3}, 11: {2, 1, 2}},
		1: {20: {50, 60, 70}, 21: {55, 66, 77}},
		2: {30: {500, 600, 700}},
		3: {40: {5000, 6000, 7000}},
	}
	c, err := New(Options{}, data)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { _ = c.Shutdown() })
	return c
}

// assertSameResults fails unless the two outcomes rank identically for
// every query.
func assertSameResults(t *testing.T, label string, queries []core.Query, want, got *Outcome) {
	t.Helper()
	for _, q := range queries {
		w, g := want.PerQuery[q.ID], got.PerQuery[q.ID]
		if len(w) != len(g) {
			t.Fatalf("%s query %d: %d results, want %d (%v vs %v)", label, q.ID, len(g), len(w), g, w)
		}
		for i := range w {
			if w[i].Person != g[i].Person || w[i].Numerator != g[i].Numerator || w[i].Denominator != g[i].Denominator {
				t.Fatalf("%s query %d result %d: %+v, want %+v", label, q.ID, i, g[i], w[i])
			}
		}
	}
}

// TestRoutedSearchPrunesAndMatchesFullFanOut is the tentpole's core pin: a
// routed search answers exactly like full fan-out while visiting only the
// stations that can report, at every round size.
func TestRoutedSearchPrunesAndMatchesFullFanOut(t *testing.T) {
	c := routingTestCluster(t)
	ctx := context.Background()
	queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{{50, 60, 70}}}}

	full, err := c.Search(ctx, queries, WithRouting(RoutingFull))
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
	if warm.Cost.SummaryRefreshes != 0 || warm.Cost.StationsPruned != 3 {
		t.Fatalf("warm routed search: %+v", warm.Cost)
	}
	// Planning is one digest evaluation per (probe, station) at one tier,
	// over the four digests the cache now holds.
	if warm.Cost.SubtreeProbes != 4 || warm.Cost.TierHops != 1 {
		t.Fatalf("warm routed search: SubtreeProbes = %d, TierHops = %d; want 4 and 1", warm.Cost.SubtreeProbes, warm.Cost.TierHops)
	}
	if st := c.RoutingState(); st.Entries != 4 || st.TotalBytes() == 0 || st.TotalBytes() != st.CachedDigestBytes {
		t.Fatalf("RoutingState after routed searches: %+v", st)
	}

	// Rounds of one query route identically.
	single, err := c.Search(ctx, queries, WithBatching(1))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "rounds of one", queries, full, single)
	if single.Cost.StationsPruned != 3 || single.Cost.MessagesDown != 1 {
		t.Fatalf("rounds-of-one routed search: %+v", single.Cost)
	}
}

// TestRoutedBatchUnionsQueryAdmits: a batch visits the union of its
// queries' admitting stations — pruning is per batch, not per query.
func TestRoutedBatchUnionsQueryAdmits(t *testing.T) {
	c := routingTestCluster(t)
	ctx := context.Background()
	queries := []core.Query{
		{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}},
		{ID: 2, Locals: []pattern.Pattern{{500, 600, 700}}},
	}
	full, err := c.Search(ctx, queries, WithRouting(RoutingFull))
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
	queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{{999999, 1, 1}}}}
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
	probe := []core.Query{{ID: 1, Locals: []pattern.Pattern{{7, 8, 9}}}}

	// Warm the summary cache; nothing matches {7,8,9} yet.
	if _, err := c.Search(ctx, probe); err != nil {
		t.Fatal(err)
	}
	// Station 3 (residents around 6000) is prunable for this query; land
	// the newcomer there.
	if err := c.Ingest(ctx, 3, map[core.PersonID]pattern.Pattern{99: {7, 8, 9}}); err != nil {
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
	queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{{500, 600, 700}}}}

	if _, err := c.Search(ctx, queries); err != nil { // warm cache
		t.Fatal(err)
	}
	if err := c.Evict(ctx, 2, []core.PersonID{30}); err != nil {
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

// TestRoutedChurnNeverLosesRecall is the stale-summary correctness sweep
// (run it under -race): random ingests and evicts interleave with routed
// searches, and after every mutation the routed answer must equal the full
// fan-out answer on the same store — summaries may only ever waste probes.
func TestRoutedChurnNeverLosesRecall(t *testing.T) {
	c := routingTestCluster(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	stations := []uint32{0, 1, 2, 3}
	next := core.PersonID(1000)
	type placedAt struct {
		person  core.PersonID
		station uint32
	}
	var live []placedAt

	for step := 0; step < 60; step++ {
		switch {
		case len(live) == 0 || rng.Intn(2) == 0:
			p := next
			next++
			s := stations[rng.Intn(len(stations))]
			pat := pattern.Pattern{rng.Int63n(40) + 1, rng.Int63n(40), rng.Int63n(40)}
			if err := c.Ingest(ctx, s, map[core.PersonID]pattern.Pattern{p: pat}); err != nil {
				t.Fatal(err)
			}
			live = append(live, placedAt{person: p, station: s})
		default:
			i := rng.Intn(len(live)) // delete a random live person
			if err := c.Evict(ctx, live[i].station, []core.PersonID{live[i].person}); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		queries := []core.Query{
			{ID: 1, Locals: []pattern.Pattern{{rng.Int63n(40) + 1, rng.Int63n(40), rng.Int63n(40)}}},
			{ID: 2, Locals: []pattern.Pattern{{50, 60, 70}}},
		}
		full, err := c.Search(ctx, queries, WithRouting(RoutingFull))
		if err != nil {
			t.Fatal(err)
		}
		routed, err := c.Search(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("step %d", step), queries, full, routed)
	}
}

// flakyStatsLink is a center-side link whose first stats request fails at
// send time while every other frame passes: the station behind it is healthy
// but ends up with no entry in the epoch's stats snapshot.
type flakyStatsLink struct {
	transport.Link
	failed atomic.Bool
}

func (l *flakyStatsLink) Send(m wire.Message) error {
	if m.Kind == wire.KindStats && l.failed.CompareAndSwap(false, true) {
		return errors.New("injected stats send failure")
	}
	return l.Link.Send(m)
}

// flakyStatsStation serves a real station behind a flakyStatsLink and returns
// the center's end.
func flakyStatsStation(id uint32, locals map[core.PersonID]pattern.Pattern) transport.Link {
	center, stationEnd := transport.Pipe(nil, nil)
	go func() { _ = NewStation(id, locals, stationEnd).Serve() }()
	return &flakyStatsLink{Link: center}
}

// TestStationWithoutStatsEntryIsPlain pins the one capability rule: the
// epoch's stats snapshot is consulted only for capability flags, so a
// station that failed the stats exchange once is a plain station — searched
// with batch frames, summary-fetched and prunable like any other — and
// results stay byte-equal to full fan-out.
func TestStationWithoutStatsEntryIsPlain(t *testing.T) {
	links := map[uint32]transport.Link{
		2: flakyStatsStation(2, map[core.PersonID]pattern.Pattern{20: {50, 60, 70}}),
	}
	for id, locals := range map[uint32]map[core.PersonID]pattern.Pattern{
		1: {10: {1, 2, 3}},
		3: {30: {500, 600, 700}},
	} {
		center, stationEnd := transport.Pipe(nil, nil)
		go func(id uint32, locals map[core.PersonID]pattern.Pattern) {
			_ = NewStation(id, locals, stationEnd).Serve()
		}(id, locals)
		links[id] = center
	}
	c, err := NewWithLinks(Options{}, links, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.StationsFailed != 1 || len(st.Stations) != 2 {
		t.Fatalf("stats snapshot %+v, want station 2 missing", st)
	}

	onFlaky := []core.Query{{ID: 1, Locals: []pattern.Pattern{{50, 60, 70}}}}
	elsewhere := []core.Query{{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}}}
	for _, queries := range [][]core.Query{onFlaky, elsewhere} {
		full, err := c.Search(ctx, queries, WithRouting(RoutingFull))
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
}

// TestRoutingPlacedReplicas: routed searches on a placement-first cluster
// dedupe replicas exactly like full fan-out and visit only the replica
// holders.
func TestRoutingPlacedReplicas(t *testing.T) {
	c, err := NewEmpty(Options{}, []uint32{1, 2, 3, 4, 5, 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()
	ctx := context.Background()

	patterns := make(map[core.PersonID]pattern.Pattern)
	for p := core.PersonID(1); p <= 30; p++ {
		patterns[p] = pattern.Pattern{int64(p) * 10, int64(p), int64(p) * 3}
	}
	if err := c.Place(ctx, patterns, WithReplication(2)); err != nil {
		t.Fatal(err)
	}

	queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{patterns[17]}}}
	full, err := c.Search(ctx, queries, WithRouting(RoutingFull))
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
	queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{{50, 60, 70}}}}
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

// TestIngestFailureInvalidatesSummary pins the lost-ack staleness hole: a
// station that APPLIES an ingest but fails the acknowledgement (the
// exchange errors at the coordinator) must not keep a pre-ingest digest in
// the cache — that is the one staleness direction that loses recall. The
// failed ingest invalidates the slot, so the next routed search refetches
// and finds the applied resident.
func TestIngestFailureInvalidatesSummary(t *testing.T) {
	center, stationEnd := transport.Pipe(nil, nil)
	st := NewStation(1, map[core.PersonID]pattern.Pattern{10: {1, 2, 3}}, nil)
	go func() {
		for {
			msg, err := stationEnd.Recv()
			if err != nil {
				return
			}
			var reply *wire.Message
			switch msg.Kind {
			case wire.KindStats:
				reply = st.handleStats()
			case wire.KindSummary:
				reply, err = st.handleSummary()
			case wire.KindBatchQuery:
				reply, err = st.handleBatch(msg)
			case wire.KindIngest:
				// Apply for real, then answer with a frame the coordinator
				// cannot decode as an Ack — the applied-but-unacknowledged
				// failure.
				if _, err = st.handleIngest(msg); err == nil {
					r := wire.StatsMessage()
					reply = &r
				}
			case wire.KindShutdown:
				return
			default:
				return
			}
			if err != nil {
				return
			}
			if err := stationEnd.Send(reply.WithRequest(msg.Request)); err != nil {
				return
			}
		}
	}()
	// A second, ordinary station: routing is skipped entirely on
	// single-station clusters, and the test needs the digest cache warm.
	otherCenter, otherEnd := transport.Pipe(nil, nil)
	go func() {
		_ = NewStation(2, map[core.PersonID]pattern.Pattern{20: {500, 600, 700}}, otherEnd).Serve()
	}()
	c, err := NewWithLinks(Options{}, map[uint32]transport.Link{1: center, 2: otherCenter}, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()

	probe := []core.Query{{ID: 1, Locals: []pattern.Pattern{{7, 8, 9}}}}
	warm, err := c.Search(ctx, probe) // warm the (pre-ingest) digests
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cost.SummaryRefreshes != 2 {
		t.Fatalf("warm-up SummaryRefreshes = %d, want 2", warm.Cost.SummaryRefreshes)
	}
	err = c.Ingest(ctx, 1, map[core.PersonID]pattern.Pattern{99: {7, 8, 9}})
	if err == nil {
		t.Fatal("corrupt ack accepted")
	}
	out, err := c.Search(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerQuery[1]) != 1 || out.PerQuery[1][0].Person != 99 {
		t.Fatalf("applied-but-unacked ingest lost under routing: %v (stale digest survived the failed exchange)", out.PerQuery[1])
	}
	if out.Cost.SummaryRefreshes != 1 {
		t.Fatalf("SummaryRefreshes = %d, want 1 (failed ingest must invalidate the slot)", out.Cost.SummaryRefreshes)
	}
}

// TestParseRoutingMode pins the CLI surface.
func TestParseRoutingMode(t *testing.T) {
	for in, want := range map[string]RoutingMode{"summary": RoutingSummary, " FULL ": RoutingFull} {
		got, err := ParseRoutingMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseRoutingMode(%q) = %v, %v", in, got, err)
		}
	}
	// "tree" named the in-coordinator digest tree, deleted with its mode.
	for _, bad := range []string{"sideways", "tree"} {
		if _, err := ParseRoutingMode(bad); !errors.Is(err, ErrUnknownRouting) {
			t.Fatalf("ParseRoutingMode(%q) err = %v, want ErrUnknownRouting", bad, err)
		}
	}
	if RoutingSummary.String() != "summary" || RoutingFull.String() != "full" {
		t.Fatal("RoutingMode.String drifted")
	}
}
