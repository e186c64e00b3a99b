package core_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dimatch/internal/cdr"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/wire"
)

// aggRound is one full-range search round as the coordinator meets it: the
// round's weight table and queries, and every station's reply as decoded.
type aggRound struct {
	table   []core.WeightEntry
	queries []core.QueryID
	replies [][]core.Report
}

// cityAggRound builds a round of nq queries, each a city person's locals,
// over every station of city: each station walks its residents, and its
// reports go through the reply codec so they arrive in wire order.
func cityAggRound(tb testing.TB, city *cdr.Dataset, nq int) aggRound {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var queries []core.Query
	for len(queries) < nq {
		if locals := city.QueryLocalsOf(cdr.PersonID(rng.Intn(len(city.Persons)))); len(locals) >= 2 {
			queries = append(queries, core.Query{ID: core.QueryID(len(queries) + 1), Locals: locals})
		}
	}
	params, err := core.SizedParams(core.Params{}, city.Length(), queries, 0.01)
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := core.NewEncoder(params, city.Length())
	if err != nil {
		tb.Fatal(err)
	}
	r := aggRound{}
	for _, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			tb.Fatal(err)
		}
		r.queries = append(r.queries, q.ID)
	}
	f := enc.Filter()
	r.table = f.Weights()
	for _, s := range city.StationIDs() {
		var persons []core.PersonID
		held := city.StationLocals(s)
		for p := range held {
			persons = append(persons, core.PersonID(p))
		}
		slices.Sort(persons)
		locals := make([]pattern.Pattern, len(persons))
		for i, p := range persons {
			locals[i] = held[cdr.PersonID(p)]
		}
		reports, err := core.MatchResidents(f, persons, locals, 1)
		if err != nil {
			tb.Fatal(err)
		}
		reply, err := wire.DecodeBatchReply(wire.EncodeBatchReply(wire.BatchReply{Station: uint32(s), Queries: uint32(nq), Reports: reports}))
		if err != nil {
			tb.Fatal(err)
		}
		r.replies = append(r.replies, reply.Reports)
	}
	return r
}

// aggCity is the benchmark's city: 20 000 persons, 64 stations, 3 days × 8
// intervals.
func aggCity(tb testing.TB) *cdr.Dataset {
	tb.Helper()
	city, err := cdr.Generate(cdr.Config{Seed: 20120612, Persons: 20_000, Stations: 64, Days: 3, IntervalsPerDay: 8, VolumeLevels: 17})
	if err != nil {
		tb.Fatal(err)
	}
	return city
}

// aggregate folds every report of r into a, then ranks every query with
// TopK(10).
func aggregate(tb testing.TB, a *core.Aggregator, r aggRound) {
	for _, reply := range r.replies {
		for _, rep := range reply {
			if err := a.AddFrom(r.table, rep); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for _, q := range r.queries {
		if len(a.TopK(q, 10)) == 0 {
			tb.Fatalf("query %d ranked nothing", q)
		}
	}
}

// BenchmarkAggregator is the coordinator's merge of one search round: every
// report of 64 stations' replies folded in with AddFrom, then every query
// ranked with TopK(10). The city is the benchmark's (aggCity), and the
// rounds are city_fanout's (one query) and batch_verify's (16) over the
// full person range, each on a new aggregator; warm is batch_verify's round
// on one aggregator Reset between rounds, as the coordinator reuses it
// across searches.
func BenchmarkAggregator(b *testing.B) {
	city := aggCity(b)
	for _, shape := range []struct {
		name    string
		queries int
		warm    bool
	}{{"city_fanout", 1, false}, {"batch_verify", 16, false}, {"warm", 16, true}} {
		r := cityAggRound(b, city, shape.queries)
		reports := 0
		for _, reply := range r.replies {
			reports += len(reply)
		}
		b.Run(shape.name, func(b *testing.B) {
			a := core.NewBatchAggregator()
			if shape.warm {
				aggregate(b, a, r)
				b.ResetTimer()
			}
			b.ReportAllocs()
			b.ReportMetric(float64(reports), "reports/op")
			for i := 0; i < b.N; i++ {
				if shape.warm {
					a.Reset()
				} else {
					a = core.NewBatchAggregator()
				}
				aggregate(b, a, r)
			}
		})
	}
}

// TestAggregatorRoundAllocs pins what aggregating batch_verify's full-range
// 16-query round costs in memory: a new aggregator allocates under half of
// the 8 783 952 B that one entry per credited query cost, and a warm one —
// Reset after an earlier round, as the coordinator reuses it — allocates
// only the ranked answers, one heap per TopK.
func TestAggregatorRoundAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark's 20 000-person city")
	}
	r := cityAggRound(t, aggCity(t), 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	aggregate(t, core.NewBatchAggregator(), r)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8_783_952/2 {
		t.Errorf("a new aggregation of the round allocates %d B; want at most %d", got, 8_783_952/2)
	}
	warm := core.NewBatchAggregator()
	aggregate(t, warm, r)
	if n := testing.AllocsPerRun(5, func() { warm.Reset(); aggregate(t, warm, r) }); n > float64(len(r.queries)) {
		t.Errorf("a warm aggregation of the round allocates %v times; want at most %d, one per query", n, len(r.queries))
	}
}

// TestAggregationIgnoresReplyOrder: one round's decoded replies, fed to the
// aggregator in shuffled station orders, rank exactly as in station order —
// Results and TopK at every k equal, summed and replicated alike — on a
// fresh aggregator and on one Reset between orders, as the coordinator
// reuses it. A search may then take its replies in arrival order.
func TestAggregationIgnoresReplyOrder(t *testing.T) {
	city, err := cdr.Generate(cdr.Config{Seed: 7, Persons: 2_000, Stations: 16, Days: 3, IntervalsPerDay: 8, VolumeLevels: 17})
	if err != nil {
		t.Fatal(err)
	}
	r := cityAggRound(t, city, 8)
	order := make([]int, len(r.replies))
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(1))
	for _, pred := range []func(core.PersonID) bool{nil, func(p core.PersonID) bool { return p%2 == 0 }} {
		rank := func(a *core.Aggregator) (out [][]core.Result) {
			a.Reset()
			a.SetReplicated(pred)
			for _, i := range order {
				for _, rep := range r.replies[i] {
					if err := a.AddFrom(r.table, rep); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, q := range r.queries {
				out = append(out, a.Results(q))
				for _, k := range []int{0, 1, 3, 10, 100} {
					out = append(out, a.TopK(q, k))
				}
			}
			return out
		}
		slices.Sort(order)
		want := rank(core.NewBatchAggregator())
		if len(want[0]) == 0 {
			t.Fatal("the round ranked nothing for its first query")
		}
		warm := core.NewBatchAggregator()
		for trial := 0; trial < 8; trial++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for name, a := range map[string]*core.Aggregator{"fresh": core.NewBatchAggregator(), "reset": warm} {
				got := rank(a)
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("replicated %v, %s aggregator, station order %v: ranking %d\n%v\nin station order\n%v", pred != nil, name, order, i, got[i], want[i])
					}
				}
			}
		}
	}
}
