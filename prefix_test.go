package dimatch

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// prefixQuery is query id's two locals; their global is what a perfect
// match holds, split across two stations or whole at one.
func prefixQuery(id QueryID) Query {
	v := int64(id) * 10
	return Query{ID: id, Locals: []Pattern{{v + 1, 2, 3}, {2, v + 2, 2}}}
}

// prefixLayout is one random population for the capped-search property
// test: persons 1..n, each ID spread to 3·p + 100 so the bound lands between
// residents, and per query the persons that match it perfectly.
type prefixLayout struct {
	n       int
	perfect map[QueryID][]PersonID
}

func prefixID(p int) PersonID { return PersonID(3*p + 100) }

// pick draws count distinct persons from [lo, hi) of the 1..n population.
func pick(rng *rand.Rand, lo, hi, count int) []PersonID {
	var out []PersonID
	for _, i := range rng.Perm(hi - lo)[:count] {
		out = append(out, prefixID(lo+i))
	}
	return out
}

// newPrefixLayout places three queries' perfect matches: query 1's eight in
// the lowest fifth of the IDs, query 2's eight in the highest tenth only, and
// query 3's three anywhere — fewer than the k = 5 the test asks for.
func newPrefixLayout(rng *rand.Rand, n int) prefixLayout {
	return prefixLayout{n: n, perfect: map[QueryID][]PersonID{
		1: pick(rng, 1, n/5, 8),
		2: pick(rng, n-n/10, n+1, 8),
		3: pick(rng, 1, n+1, 3),
	}}
}

// stationData lays the population out over at least two stations. A perfect
// match holds its query's locals on two stations or its global whole on one;
// one person in four holds a single local of a random query (a partial,
// scoring below D); the rest hold noise.
func (l prefixLayout) stationData(rng *rand.Rand, stations int) map[uint32]map[PersonID]Pattern {
	data := make(map[uint32]map[PersonID]Pattern, stations)
	for s := 0; s < stations; s++ {
		data[uint32(s)] = make(map[PersonID]Pattern)
	}
	match := make(map[PersonID]QueryID)
	for q, ps := range l.perfect {
		for _, p := range ps {
			match[p] = q
		}
	}
	for i := 1; i <= l.n; i++ {
		p := prefixID(i)
		a := uint32(rng.Intn(stations))
		b := (a + 1 + uint32(rng.Intn(stations-1))) % uint32(stations)
		switch q, ok := match[p]; {
		case ok && rng.Intn(2) == 0:
			locals := prefixQuery(q).Locals
			data[a][p], data[b][p] = locals[0], locals[1]
		case ok:
			g, _ := prefixQuery(q).Global()
			data[a][p] = g
		case rng.Intn(4) == 0:
			data[a][p] = prefixQuery(QueryID(1 + rng.Intn(3))).Locals[rng.Intn(2)]
		default:
			data[a][p] = Pattern{1 + rng.Int63n(60), rng.Int63n(60), rng.Int63n(60)}
		}
	}
	return data
}

// globals returns each person's whole pattern, for placement.
func (l prefixLayout) globals(rng *rand.Rand) map[PersonID]Pattern {
	out := make(map[PersonID]Pattern)
	for _, locals := range l.stationData(rng, 2) {
		for p, local := range locals {
			if g := out[p]; g != nil {
				for i := range g {
					g[i] += local[i]
				}
				continue
			}
			out[p] = local.Clone()
		}
	}
	return out
}

// withTopK sets one search's top-k, as Options.TopK sets every search's: the
// scenarios below change k between searches that share one learned bound,
// which two clusters could not.
func withTopK(k int) SearchOption {
	return func(c *searchConfig) { c.topK = k }
}

// wantCapped is what a capped search of k must answer: the uncapped
// (withTopK(0)) answer's first k, and — verifying — those of them the
// uncapped verified answer keeps: verification filters the truncated top-k
// without backfill.
func wantCapped(t *testing.T, c *Cluster, queries []Query, k int, verify bool, opts ...SearchOption) map[QueryID][]Result {
	t.Helper()
	ctx := context.Background()
	all, err := c.Search(ctx, queries, append([]SearchOption{withTopK(0), WithVerify(false)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if all.Cost.TailRounds != 0 {
		t.Fatalf("an uncapped search ran %d tail rounds", all.Cost.TailRounds)
	}
	var kept *Outcome
	if verify {
		if kept, err = c.Search(ctx, queries, append([]SearchOption{withTopK(0), WithVerify(true)}, opts...)...); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[QueryID][]Result, len(queries))
	for _, q := range queries {
		rs := all.PerQuery[q.ID]
		if len(rs) > k {
			rs = rs[:k]
		}
		if verify {
			ok := make(map[PersonID]bool)
			for _, r := range kept.PerQuery[q.ID] {
				ok[r.Person] = true
			}
			var f []Result
			for _, r := range rs {
				if ok[r.Person] {
					f = append(f, r)
				}
			}
			rs = f
		}
		want[q.ID] = rs
	}
	return want
}

// checkCapped runs one capped search of k and holds it to wantCapped. It
// returns the search's cost for the caller's round expectations.
func checkCapped(t *testing.T, label string, c *Cluster, queries []Query, k int, verify bool, opts ...SearchOption) CostReport {
	t.Helper()
	want := wantCapped(t, c, queries, k, verify, opts...)
	got, err := c.Search(context.Background(), queries, append([]SearchOption{withTopK(k), WithVerify(verify)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, label, queries, &Outcome{PerQuery: want}, got)
	return got.Cost
}

// runPrefixScenario drives one cluster through the layouts: a first capped
// search (the whole range: nothing is learned yet), the same again (answered
// from the prefix, fewer reports), matches only at high IDs (a tail round),
// fewer than k perfect matches (a tail round), and k above the population.
func runPrefixScenario(t *testing.T, label string, c *Cluster, n int, verify bool, opts ...SearchOption) {
	t.Helper()
	ctx := context.Background()
	low := []Query{prefixQuery(1)}
	const k = 5
	if cost := checkCapped(t, label+" first", c, low, k, verify, opts...); cost.TailRounds != 0 {
		t.Fatalf("%s: the first capped search ran a tail round", label)
	}
	full, err := c.Search(ctx, low, append([]SearchOption{withTopK(0), WithVerify(false)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	cost := checkCapped(t, label+" prefix", c, low, k, verify, opts...)
	if cost.TailRounds != 0 || cost.ReportsReceived >= full.Cost.ReportsReceived {
		t.Fatalf("%s: a learned prefix search ran %d tail rounds for %d reports, the full range takes %d", label, cost.TailRounds, cost.ReportsReceived, full.Cost.ReportsReceived)
	}
	for _, tc := range []struct {
		name    string
		queries []Query
		k       int
	}{
		{"high IDs only", []Query{prefixQuery(2)}, k},
		{"fewer than k", []Query{prefixQuery(3)}, k},
		{"k above the population", low, n + 10},
		{"all three", []Query{prefixQuery(1), prefixQuery(2), prefixQuery(3)}, k},
	} {
		if cost := checkCapped(t, label+" "+tc.name, c, tc.queries, tc.k, verify, opts...); cost.TailRounds != 1 {
			t.Fatalf("%s %s: %d tail rounds, want 1", label, tc.name, cost.TailRounds)
		}
	}
}

// TestCappedSearchEqualsUncappedTruncated is the prefix rule's property test:
// over random populations whose perfect matches sit low, only high, or fall
// short of k, a capped search answers exactly the uncapped answer's first k —
// flat, placed with two replicas and verified — and runs a tail round
// exactly when the prefix cannot fill k at the top score.
func TestCappedSearchEqualsUncappedTruncated(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 150 + rng.Intn(150)
		l := newPrefixLayout(rng, n)
		data := l.stationData(rng, 3+rng.Intn(4))

		t.Run(fmt.Sprintf("seed%d/flat", seed), func(t *testing.T) {
			runPrefixScenario(t, "flat", startCluster(t, testOptions(), data), n, false)
		})
		t.Run(fmt.Sprintf("seed%d/full-routing", seed), func(t *testing.T) {
			runPrefixScenario(t, "full routing", startCluster(t, testOptions(), data), n, false, WithRouting(RoutingFull))
		})
		t.Run(fmt.Sprintf("seed%d/verify", seed), func(t *testing.T) {
			runPrefixScenario(t, "verify", startCluster(t, testOptions(), data), n, true)
		})
		t.Run(fmt.Sprintf("seed%d/placed", seed), func(t *testing.T) {
			c, err := NewCluster(testOptions(), 3, emptyMembers([]uint32{0, 1, 2, 3, 4})...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Shutdown() })
			if err := c.Place(context.Background(), l.globals(rand.New(rand.NewSource(seed))), WithReplication(2)); err != nil {
				t.Fatal(err)
			}
			runPrefixScenario(t, "placed", c, n, false)
		})
	}
}

// TestCappedSearchBatched: a capped search of five queries is one frame per
// station, and its tail re-sends that one frame to every station.
func TestCappedSearchBatched(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := newPrefixLayout(rng, 240)
	c := startCluster(t, testOptions(), l.stationData(rng, 4))
	queries := []Query{prefixQuery(1), prefixQuery(4), prefixQuery(5), prefixQuery(6), prefixQuery(7)}
	learn := []Query{prefixQuery(1)}
	checkCapped(t, "learn", c, learn, 5, false)
	cost := checkCapped(t, "batched", c, queries, 5, false, WithRouting(RoutingFull))
	// Queries 4 to 7 match nobody perfectly, so the tail runs.
	if cost.TailRounds != 1 {
		t.Fatalf("TailRounds = %d, want 1", cost.TailRounds)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(2 * len(st.Stations)); cost.MessagesDown != want {
		t.Fatalf("MessagesDown = %d, want %d: the frame sent twice to every station", cost.MessagesDown, want)
	}
}

// TestCappedSearchesShareTheBound runs capped searches concurrently over one
// cluster (run under -race): they share the learned bound, and every answer
// equals its uncapped reference however the learning interleaves.
func TestCappedSearchesShareTheBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := newPrefixLayout(rng, 200)
	c := startCluster(t, testOptions(), l.stationData(rng, 4))
	sets := [][]Query{
		{prefixQuery(1)}, {prefixQuery(2)}, {prefixQuery(3)}, {prefixQuery(1), prefixQuery(2)},
	}
	wants := make([]map[QueryID][]Result, len(sets))
	for i, qs := range sets {
		wants[i] = wantCapped(t, c, qs, 5, false)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				set := (g + i) % len(sets)
				out, err := c.Search(context.Background(), sets[set], withTopK(5))
				if err != nil {
					errs <- err
					return
				}
				for _, q := range sets[set] {
					if got, want := out.Persons(q.ID), wants[set][q.ID]; len(got) != len(want) {
						errs <- fmt.Errorf("query %d: %v, want %v", q.ID, got, want)
						return
					} else {
						for j := range want {
							if got[j] != want[j].Person {
								errs <- fmt.Errorf("query %d: %v, want %v", q.ID, got, want)
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// kindFailLink is a center-side link whose requests of one kind fail at send
// time while every other frame passes.
type kindFailLink struct {
	Link
	kind wire.Kind
}

func (l kindFailLink) Send(m wire.Message) error {
	if m.Kind == l.kind {
		return fmt.Errorf("injected %v send failure", m.Kind)
	}
	return l.Link.Send(m)
}

// TestStationsFailedCountsEveryLostStation: station 3 is closed before the
// search and fails every exchange, station 2 fails only the search round and
// station 1 only verification's pull. StationsFailed is the union of the
// lost stations, 3 — not the larger of the two rounds' counts, 2.
func TestStationsFailedCountsEveryLostStation(t *testing.T) {
	links := make(map[uint32]Link)
	data := paperScenario()
	data[3] = map[PersonID]Pattern{20: {1, 1, 1}}
	for id, locals := range data {
		center, stationEnd := transport.Pipe(nil, nil)
		go func() { _ = ServeStation(id, locals, stationEnd) }()
		links[id] = center
	}
	links[1] = kindFailLink{links[1], wire.KindDump}
	links[2] = kindFailLink{links[2], wire.KindBatchQuery}
	c, err := NewCluster(testOptions(), 3, linkMembers(links)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	if err := links[3].Close(); err != nil {
		t.Fatal(err)
	}
	out, err := c.Search(context.Background(), []Query{paperQuery()}, WithRouting(RoutingFull), WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost.StationsFailed != 3 {
		t.Fatalf("StationsFailed = %d, want 3: stations 2 and 3 lost to the search round, 1 and 3 to verification", out.Cost.StationsFailed)
	}
}
