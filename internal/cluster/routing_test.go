package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/index"
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
	c, err := newFromData(Options{}, data)
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
	row := func() pattern.Pattern {
		p := make(pattern.Pattern, length)
		for g := range p {
			p[g] = rng.Int63n(40)
		}
		p[rng.Intn(length)]++
		return p
	}
	data := make(map[uint32]map[core.PersonID]pattern.Pattern)
	for id := uint32(0); id < stations; id++ {
		data[id] = make(map[core.PersonID]pattern.Pattern)
		for j := 0; j < residents; j++ {
			data[id][core.PersonID(100*id+uint32(j)+1)] = row()
		}
	}
	// Persons 9001–9003 are split: one piece on each of two stations.
	for p := core.PersonID(9001); p <= 9003; p++ {
		a := uint32(rng.Intn(stations))
		b := (a + 1 + uint32(rng.Intn(stations-1))) % stations
		data[a][p], data[b][p] = row(), row()
	}
	var queries []core.Query
	exact := make(map[core.QueryID]core.PersonID)
	for i := 0; i < 6; i++ {
		id := uint32(rng.Intn(stations))
		p := core.PersonID(100*id + uint32(rng.Intn(residents)) + 1)
		q := core.Query{ID: core.QueryID(len(queries) + 1), Locals: []pattern.Pattern{data[id][p].Clone()}}
		exact[q.ID] = p
		queries = append(queries, q)
		near := data[id][p].Clone()
		near[rng.Intn(length)]++ // one cell off: within ε = 1 at every position
		queries = append(queries, core.Query{ID: core.QueryID(len(queries) + 1), Locals: []pattern.Pattern{near}})
	}
	for p := core.PersonID(9001); p <= 9003; p++ {
		var locals []pattern.Pattern
		for id := uint32(0); id < stations; id++ {
			if l, ok := data[id][p]; ok {
				locals = append(locals, l.Clone())
			}
		}
		q := core.Query{ID: core.QueryID(len(queries) + 1), Locals: locals}
		exact[q.ID] = p
		queries = append(queries, q)
	}
	for _, samples := range []int{3, 8, 12, 24} {
		t.Run(fmt.Sprint("samples=", samples), func(t *testing.T) {
			c, err := newFromData(Options{Params: core.Params{Samples: samples, Epsilon: 1, Seed: 3, PositionSalted: true}}, data)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			t.Cleanup(func() { _ = c.Shutdown() })
			ctx := context.Background()
			pruned := 0
			for _, q := range queries {
				one := []core.Query{q}
				full, err := c.Search(ctx, one, WithRouting(RoutingFull))
				if err != nil {
					t.Fatal(err)
				}
				if p, ok := exact[q.ID]; ok && !slices.ContainsFunc(full.PerQuery[q.ID], func(r core.Result) bool { return r.Person == p && r.Score() == 1 }) {
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

// TestNoteIngestAddsInPlace pins the coordinator's delta update: an ingest
// into a cached digest adds its rows to that digest itself — the cache keeps
// the same summary, now admitting the new rows — and allocates nothing. A
// batch with a row of a foreign length drops the entry and leaves the digest
// untouched.
func TestNoteIngestAddsInPlace(t *testing.T) {
	sum, err := index.Build(3, []pattern.Pattern{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var c summaryCache
	c.noteIngest(7, nil, nil) // create the generation slot
	_, gen := c.get(7)
	c.put(7, gen, sum)
	batch := []pattern.Pattern{{40, 50, 60}, {0, 0, 0}, {70, 80, 90}}
	if n := testing.AllocsPerRun(50, func() { c.noteIngest(7, batch, nil) }); n != 0 {
		t.Fatalf("noteIngest into a cached digest allocates %v times per run; want 0", n)
	}
	got, _ := c.get(7)
	probe, err := index.NewProbe(core.Query{ID: 1, Locals: []pattern.Pattern{{70, 80, 90}}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != sum || !sum.Admits(probe) {
		t.Fatal("the cached digest was replaced or missed the ingested rows")
	}
	words := slices.Clone(sum.Words())
	c.noteIngest(7, []pattern.Pattern{{5, 5, 5}, {1, 2}}, nil)
	if got, _ := c.get(7); got != nil {
		t.Fatal("a batch with a foreign-length row left the digest cached")
	}
	if !slices.Equal(sum.Words(), words) {
		t.Fatal("a refused batch changed the digest")
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

// TestRoutedSearchDuringStreamedIngest races routed searches against the
// in-place digest deltas (run it under -race): over a placed R = 2 cluster
// with warmed digests, one goroutine places fresh persons batch by batch,
// as a stream's flushes do, while four search for persons already placed.
// A person whose placement returned must be found, no search may refetch a
// digest — every delta landed in the cached one — and at the end routed
// results equal full fan-out.
func TestRoutedSearchDuringStreamedIngest(t *testing.T) {
	ctx := context.Background()
	const length, batches, perBatch = 6, 30, 4
	rng := rand.New(rand.NewSource(5))
	draw := func() pattern.Pattern {
		pat := make(pattern.Pattern, length)
		for i := range pat {
			pat[i] = 1 + rng.Int63n(1000)
		}
		return pat
	}
	initial := make(map[core.PersonID]pattern.Pattern)
	for p := core.PersonID(1); p <= 200; p++ {
		initial[p] = draw()
	}
	fresh := make([]map[core.PersonID]pattern.Pattern, batches)
	next := core.PersonID(1000)
	for b := range fresh {
		fresh[b] = make(map[core.PersonID]pattern.Pattern)
		for k := 0; k < perBatch; k++ {
			fresh[b][next] = draw()
			next++
		}
	}
	stations := []uint32{1, 2, 3, 4, 5, 6}
	c := newPlacedCluster(t, stations, 2, initial)
	warm, err := c.Search(ctx, []core.Query{{ID: 1, Locals: []pattern.Pattern{initial[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cost.SummaryRefreshes != len(stations) || c.RoutingState().Entries != len(stations) {
		t.Fatalf("warm-up fetched %d digests and cached %d, want %d", warm.Cost.SummaryRefreshes, c.RoutingState().Entries, len(stations))
	}

	type placed struct {
		person core.PersonID
		pat    pattern.Pattern
	}
	var mu sync.Mutex
	var done []placed // persons whose placement returned
	for p, pat := range initial {
		done = append(done, placed{p, pat})
	}
	stop := make(chan struct{})
	errs := make(chan error, 5)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for _, batch := range fresh {
			unplaced, err := c.Place(ctx, batch, WithReplication(2))
			if err != nil || len(unplaced) > 0 {
				errs <- fmt.Errorf("place: %v unplaced, %v", unplaced, err)
				return
			}
			mu.Lock()
			for p, pat := range batch {
				done = append(done, placed{p, pat})
			}
			mu.Unlock()
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for searches := 0; ; searches++ {
				select {
				case <-stop:
					if searches > 0 {
						return
					}
				default:
				}
				mu.Lock()
				// The newest placed person and a random earlier one.
				want := []placed{done[len(done)-1], done[rng.Intn(len(done))]}
				mu.Unlock()
				queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{want[0].pat}}, {ID: 2, Locals: []pattern.Pattern{want[1].pat}}}
				out, err := c.Search(ctx, queries)
				if err != nil {
					errs <- err
					return
				}
				if out.Cost.SummaryRefreshes != 0 {
					errs <- fmt.Errorf("a search during the stream refetched %d digests", out.Cost.SummaryRefreshes)
					return
				}
				for i, w := range want {
					rs := out.PerQuery[queries[i].ID]
					if !slices.ContainsFunc(rs, func(r core.Result) bool { return r.Person == w.person && r.Score() == 1 }) {
						errs <- fmt.Errorf("placed person %d not found by a routed search: %+v", w.person, rs)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var queries []core.Query
	for _, w := range done {
		queries = append(queries, core.Query{ID: core.QueryID(len(queries) + 1), Locals: []pattern.Pattern{w.pat}})
	}
	full, err := c.Search(ctx, queries, WithRouting(RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	routed, err := c.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if routed.Cost.SummaryRefreshes != 0 {
		t.Fatalf("the final routed search refetched %d digests", routed.Cost.SummaryRefreshes)
	}
	assertSameResults(t, "after the stream", queries, full, routed)
}

// flakyStatsLink is a center-side link that counts the stats requests sent
// over it and fails the second — the first after the join handshake — at
// send time, while every other frame passes.
type flakyStatsLink struct {
	transport.Link
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
func flakyStatsStation(id uint32, locals map[core.PersonID]pattern.Pattern) transport.Link {
	center, stationEnd := transport.Pipe(nil, nil)
	go func() { _ = ServeStation(id, locals, stationEnd) }()
	return &flakyStatsLink{Link: center}
}

// TestStationWithoutStatsEntryIsPlain: a station that joined plain stays a
// plain station — its kind comes from the join handshake, the one stats
// exchange it ever sees — so it is searched with batch frames,
// summary-fetched and prunable like any other, and results stay byte-equal
// to full fan-out.
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
			_ = ServeStation(id, locals, stationEnd)
		}(id, locals)
		links[id] = center
	}
	c, err := New(Options{}, 3, linkMembers(links)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()

	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
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
	if n := links[2].(*flakyStatsLink).stats.Load(); n != 1 {
		t.Fatalf("station 2's link carried %d stats frames, want 1 (the join's)", n)
	}
}

// TestRoutingPlacedReplicas: routed searches on a placement-first cluster
// dedupe replicas exactly like full fan-out and visit only the replica
// holders.
func TestRoutingPlacedReplicas(t *testing.T) {
	c, err := New(Options{}, 3, emptyMembers([]uint32{1, 2, 3, 4, 5, 6})...)
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
	if _, err := c.Place(ctx, patterns, WithReplication(2)); err != nil {
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
	st, _ := NewStation(1, map[core.PersonID]pattern.Pattern{10: {1, 2, 3}}, nil, nil)
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
		_ = ServeStation(2, map[core.PersonID]pattern.Pattern{20: {500, 600, 700}}, otherEnd)
	}()
	c, err := New(Options{}, 3, linkMembers(map[uint32]transport.Link{1: center, 2: otherCenter})...)
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

// BenchmarkPlanRoute times the routing step alone over 64 stations whose
// digests are already cached at the coordinator, for one selective point
// query. No summary is fetched inside the loop, so µs/op is the
// coordinator's planning cost per search and stations/op what it visits:
// "addressed" holds 16 residents per station and admits only the station
// holding the queried person; "placed-r2" places 1024 persons at R=2, where
// the group rule visits one of the person's two replicas. Their values lie
// in [1, 50], so the query's band rejects most digests on its first value.
// "point" stands for the live planner of the point_routed workload: 100 000
// persons placed at R=2 (≈ 3 125 residents per station), 24 values uniform
// in [1, 1 000 000], ε = 1, and one placed person's pattern as the query.
// probes/op is SubtreeProbes, one per Admits evaluation.
func BenchmarkPlanRoute(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make(map[uint32]map[core.PersonID]pattern.Pattern, 64)
	patterns := make(map[core.PersonID]pattern.Pattern, 64*16)
	ids := make([]uint32, 64)
	for s := uint32(0); s < 64; s++ {
		ids[s] = s
		locals := make(map[core.PersonID]pattern.Pattern, 16)
		for j := 0; j < 16; j++ {
			pat := make(pattern.Pattern, 24)
			for i := range pat {
				pat[i] = rng.Int63n(50) + 1
			}
			p := core.PersonID(s)*16 + core.PersonID(j) + 1
			locals[p] = pat
			patterns[p] = pat
		}
		data[s] = locals
	}
	query := []core.Query{{ID: 1, Locals: []pattern.Pattern{data[7][7*16+1]}}}
	b.Run("addressed", func(b *testing.B) {
		c, err := newFromData(Options{}, data)
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		b.Cleanup(func() { _ = c.Shutdown() })
		benchPlanRoute(b, c, query, 1)
	})
	b.Run("placed-r2", func(b *testing.B) {
		c, err := New(Options{}, 24, emptyMembers(ids)...)
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		b.Cleanup(func() { _ = c.Shutdown() })
		if _, err := c.Place(context.Background(), patterns, WithReplication(2)); err != nil {
			b.Fatal(err)
		}
		benchPlanRoute(b, c, query, 1)
	})
	b.Run("point", func(b *testing.B) {
		const persons = 100_000
		rng := rand.New(rand.NewSource(1))
		patterns := make(map[core.PersonID]pattern.Pattern, persons)
		for p := core.PersonID(1); p <= persons; p++ {
			pat := make(pattern.Pattern, 24)
			for i := range pat {
				pat[i] = rng.Int63n(1_000_000) + 1
			}
			patterns[p] = pat
		}
		c, err := New(Options{Params: core.Params{Epsilon: 1}}, 24, emptyMembers(ids)...)
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		b.Cleanup(func() { _ = c.Shutdown() })
		if _, err := c.Place(context.Background(), patterns, WithReplication(2)); err != nil {
			b.Fatal(err)
		}
		benchPlanRoute(b, c, []core.Query{{ID: 1, Locals: []pattern.Pattern{patterns[persons/2]}}}, 1)
	})
}

// benchPlanRoute warms c's digest cache with one planning pass, checks it
// visits want stations, then times planRoute.
func benchPlanRoute(b *testing.B, c *Cluster, queries []core.Query, want int) {
	ctx := context.Background()
	ep := c.currentEpoch()
	cfg := c.searchDefaults()
	var warm CostReport
	if plan := c.planRoute(ctx, ep, cfg, queries, &warm); len(plan.ep.ids) != want || warm.SummaryRefreshes != len(ep.ids) {
		b.Fatalf("warm-up pass visits %d stations after %d refreshes, want %d after %d", len(plan.ep.ids), warm.SummaryRefreshes, want, len(ep.ids))
	}
	visited, probes := 0, uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cost CostReport
		routeSink = c.planRoute(ctx, ep, cfg, queries, &cost)
		visited += len(routeSink.ep.ids)
		probes += cost.SubtreeProbes
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
	b.ReportMetric(float64(visited)/float64(b.N), "stations/op")
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
}

var routeSink routePlan
