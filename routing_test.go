package dimatch

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dimatch/internal/index"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// assertSameResults fails unless the two outcomes rank identically for
// every query.
func assertSameResults(t *testing.T, label string, queries []Query, want, got *Outcome) {
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

// TestNoteIngestAddsInPlace pins the coordinator's delta update: an ingest
// into a cached digest adds its rows to that digest itself — the cache keeps
// the same summary, now admitting the new rows — and allocates nothing. A
// batch with a row of a foreign length drops the entry and leaves the digest
// untouched.
func TestNoteIngestAddsInPlace(t *testing.T) {
	sum, err := index.Build(3, []Pattern{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var c summaryCache
	c.handOver(7, 0, nil, nil, nil) // create the generation slot
	_, gen := c.get(7)
	c.put(7, gen, sum)
	batch := []Pattern{{40, 50, 60}, {0, 0, 0}, {70, 80, 90}}
	if n := testing.AllocsPerRun(50, func() { c.handOver(7, 0, nil, batch, nil) }); n != 0 {
		t.Fatalf("an ingest into a cached digest allocates %v times per run; want 0", n)
	}
	got, _ := c.get(7)
	probe, err := index.NewProbe(Query{ID: 1, Locals: []Pattern{{70, 80, 90}}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != sum || !sum.Admits(probe) {
		t.Fatal("the cached digest was replaced or missed the ingested rows")
	}
	words := slices.Clone(sum.Words())
	c.handOver(7, 0, nil, []Pattern{{5, 5, 5}, {1, 2}}, nil)
	if got, _ := c.get(7); got != nil {
		t.Fatal("a batch with a foreign-length row left the digest cached")
	}
	if !slices.Equal(sum.Words(), words) {
		t.Fatal("a refused batch changed the digest")
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
	draw := func() Pattern {
		pat := make(Pattern, length)
		for i := range pat {
			pat[i] = 1 + rng.Int63n(1000)
		}
		return pat
	}
	initial := make(map[PersonID]Pattern)
	for p := PersonID(1); p <= 200; p++ {
		initial[p] = draw()
	}
	fresh := make([]map[PersonID]Pattern, batches)
	next := PersonID(1000)
	for b := range fresh {
		fresh[b] = make(map[PersonID]Pattern)
		for k := 0; k < perBatch; k++ {
			fresh[b][next] = draw()
			next++
		}
	}
	stations := []uint32{1, 2, 3, 4, 5, 6}
	c := newPlacedCluster(t, stations, 2, initial)
	warm, err := c.Search(ctx, []Query{{ID: 1, Locals: []Pattern{initial[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cost.SummaryRefreshes != 0 || c.RoutingState().Entries != len(stations) {
		t.Fatalf("warm-up fetched %d digests and cached %d, want 0 fetched (Place handed them over) and %d cached", warm.Cost.SummaryRefreshes, c.RoutingState().Entries, len(stations))
	}

	type placed struct {
		person PersonID
		pat    Pattern
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
			unplaced, err := c.place(ctx, batch, WithReplication(2))
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
				queries := []Query{{ID: 1, Locals: []Pattern{want[0].pat}}, {ID: 2, Locals: []Pattern{want[1].pat}}}
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
					if !slices.ContainsFunc(rs, func(r Result) bool { return r.Person == w.person && r.Score() == 1 }) {
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

	var queries []Query
	for _, w := range done {
		queries = append(queries, Query{ID: QueryID(len(queries) + 1), Locals: []Pattern{w.pat}})
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

// TestIngestFailureInvalidatesSummary pins the lost-ack staleness hole: a
// station that APPLIES an ingest but fails the acknowledgement (the
// exchange errors at the coordinator) must not keep a pre-ingest digest in
// the cache — that is the one staleness direction that loses recall. The
// failed ingest invalidates the slot, so the next routed search refetches
// and finds the applied resident.
func TestIngestFailureInvalidatesSummary(t *testing.T) {
	center, stationEnd := transport.Pipe(nil, nil)
	st, _ := newStation(1, map[PersonID]Pattern{10: {1, 2, 3}}, nil, nil)
	go func() {
		for {
			msg, err := stationEnd.Recv()
			if err != nil {
				return
			}
			var reply wire.Message
			switch msg.Kind {
			case wire.KindStats, wire.KindSummary, wire.KindBatchQuery:
				reply, err = st.handle(msg)
			case wire.KindIngest:
				// Apply for real, then answer with a frame the coordinator
				// cannot decode as an Ack — the applied-but-unacknowledged
				// failure.
				if _, err = st.handleIngest(msg); err == nil {
					reply = wire.StatsMessage()
				}
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
		_ = ServeStation(2, map[PersonID]Pattern{20: {500, 600, 700}}, otherEnd)
	}()
	c, err := NewCluster(Options{}, 3, linkMembers(map[uint32]Link{1: center, 2: otherCenter})...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()

	probe := []Query{{ID: 1, Locals: []Pattern{{7, 8, 9}}}}
	warm, err := c.Search(ctx, probe) // warm the (pre-ingest) digests
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cost.SummaryRefreshes != 2 {
		t.Fatalf("warm-up SummaryRefreshes = %d, want 2", warm.Cost.SummaryRefreshes)
	}
	err = c.Ingest(ctx, 1, map[PersonID]Pattern{99: {7, 8, 9}})
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
	data := make(map[uint32]map[PersonID]Pattern, 64)
	patterns := make(map[PersonID]Pattern, 64*16)
	ids := make([]uint32, 64)
	for s := uint32(0); s < 64; s++ {
		ids[s] = s
		locals := make(map[PersonID]Pattern, 16)
		for j := 0; j < 16; j++ {
			pat := make(Pattern, 24)
			for i := range pat {
				pat[i] = rng.Int63n(50) + 1
			}
			p := PersonID(s)*16 + PersonID(j) + 1
			locals[p] = pat
			patterns[p] = pat
		}
		data[s] = locals
	}
	query := []Query{{ID: 1, Locals: []Pattern{data[7][7*16+1]}}}
	b.Run("addressed", func(b *testing.B) {
		c, err := newFromData(Options{}, data)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = c.Shutdown() })
		benchPlanRoute(b, c, query, 1)
	})
	b.Run("placed-r2", func(b *testing.B) {
		c, err := NewCluster(Options{}, 24, emptyMembers(ids)...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = c.Shutdown() })
		if err := c.Place(context.Background(), patterns, WithReplication(2)); err != nil {
			b.Fatal(err)
		}
		benchPlanRoute(b, c, query, 1)
	})
	b.Run("point", func(b *testing.B) {
		const persons = 100_000
		rng := rand.New(rand.NewSource(1))
		patterns := make(map[PersonID]Pattern, persons)
		for p := PersonID(1); p <= persons; p++ {
			pat := make(Pattern, 24)
			for i := range pat {
				pat[i] = rng.Int63n(1_000_000) + 1
			}
			patterns[p] = pat
		}
		c, err := NewCluster(Options{Params: Params{Epsilon: 1}}, 24, emptyMembers(ids)...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = c.Shutdown() })
		if err := c.Place(context.Background(), patterns, WithReplication(2)); err != nil {
			b.Fatal(err)
		}
		benchPlanRoute(b, c, []Query{{ID: 1, Locals: []Pattern{patterns[persons/2]}}}, 1)
	})
}

// benchPlanRoute warms c's digest cache with one planning pass, checks it
// visits want stations, then times planRoute.
func benchPlanRoute(b *testing.B, c *Cluster, queries []Query, want int) {
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
