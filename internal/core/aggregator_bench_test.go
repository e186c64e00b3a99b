package core_test

import (
	"math/rand"
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
func cityAggRound(b *testing.B, city *cdr.Dataset, nq int) aggRound {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	var queries []core.Query
	for len(queries) < nq {
		if locals := city.QueryLocalsOf(cdr.PersonID(rng.Intn(len(city.Persons)))); len(locals) >= 2 {
			queries = append(queries, core.Query{ID: core.QueryID(len(queries) + 1), Locals: locals})
		}
	}
	params, err := core.SizedParams(core.Params{}, city.Length(), queries, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := core.NewEncoder(params, city.Length())
	if err != nil {
		b.Fatal(err)
	}
	r := aggRound{}
	for _, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			b.Fatal(err)
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
			b.Fatal(err)
		}
		reply, err := wire.DecodeBatchReply(wire.EncodeBatchReply(wire.BatchReply{Station: uint32(s), Queries: uint32(nq), Reports: reports}))
		if err != nil {
			b.Fatal(err)
		}
		r.replies = append(r.replies, reply.Reports)
	}
	return r
}

// BenchmarkAggregator is the coordinator's merge of one search round: every
// report of 64 stations' replies folded in with AddFrom, then every query
// ranked with TopK(10). The city is the benchmark's — 20 000 persons, 3
// days × 8 intervals — and the rounds are city_fanout's (one query) and
// batch_verify's (16) over the full person range.
func BenchmarkAggregator(b *testing.B) {
	city, err := cdr.Generate(cdr.Config{Seed: 20120612, Persons: 20_000, Stations: 64, Days: 3, IntervalsPerDay: 8, VolumeLevels: 17})
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name    string
		queries int
	}{{"city_fanout", 1}, {"batch_verify", 16}} {
		r := cityAggRound(b, city, shape.queries)
		reports := 0
		for _, reply := range r.replies {
			reports += len(reply)
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(reports), "reports/op")
			for i := 0; i < b.N; i++ {
				a := core.NewBatchAggregator()
				for _, reply := range r.replies {
					for _, rep := range reply {
						if err := a.AddFrom(r.table, rep); err != nil {
							b.Fatal(err)
						}
					}
				}
				for _, q := range r.queries {
					if len(a.TopK(q, 10)) == 0 {
						b.Fatalf("query %d ranked nothing", q)
					}
				}
			}
		})
	}
}
