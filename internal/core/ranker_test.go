package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dimatch/internal/pattern"
)

// rankerFixture builds a filter whose weight table is known, for driving the
// aggregator directly.
func rankerFixture(t *testing.T) *Filter {
	t.Helper()
	// Query 1: locals {1,2,3} (num 6) and {2,2,2} (num 6), denom 12.
	// Query 2: single local {5,5} is invalid here (length); use same length.
	enc, err := NewEncoder(testParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.AddQuery(Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}, {2, 2, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := enc.AddQuery(Query{ID: 2, Locals: []pattern.Pattern{{4, 5, 6}}}); err != nil {
		t.Fatal(err)
	}
	return enc.Filter()
}

// weightIDFor finds the table pointer for a (query, mask) pair.
func weightIDFor(t *testing.T, f *Filter, q QueryID, mask pattern.Subset) WeightID {
	t.Helper()
	for i, w := range f.Weights() {
		if w.Query == q && w.Mask == mask {
			return WeightID(i)
		}
	}
	t.Fatalf("no weight for query %d mask %s", q, mask)
	return 0
}

func TestAggregatorPartitionSumsToOne(t *testing.T) {
	f := rankerFixture(t)
	a := NewBatchAggregator()
	// Person 7's data is split across two stations matching the two locals
	// of query 1: the weights must sum to exactly 1.
	if err := a.AddFrom(f.Weights(), Report{Person: 7, WeightIDs: []WeightID{weightIDFor(t, f, 1, 0b01)}}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFrom(f.Weights(), Report{Person: 7, WeightIDs: []WeightID{weightIDFor(t, f, 1, 0b10)}}); err != nil {
		t.Fatal(err)
	}
	res := a.TopK(1, 10)
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	if res[0].Person != 7 || res[0].Score() != 1.0 || res[0].Stations != 2 {
		t.Fatalf("result = %+v, want person 7 with score 1 from 2 stations", res[0])
	}
}

func TestAggregatorDeletesOverMatched(t *testing.T) {
	f := rankerFixture(t)
	a := NewBatchAggregator()
	// The paper's counterexample: three stations each hold {3,4,5}, so each
	// matches the full combination; the aggregate {9,12,15} is not the
	// query, and the summed weight 3 > 1 must delete the person.
	full := weightIDFor(t, f, 1, 0b11)
	for i := 0; i < 3; i++ {
		if err := a.AddFrom(f.Weights(), Report{Person: 9, WeightIDs: []WeightID{full}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(a.Results(1)); got != 1 {
		t.Fatalf("%d accumulated candidates, want 1 before deletion", got)
	}
	if res := a.TopK(1, 10); len(res) != 0 {
		t.Fatalf("over-matched person survived: %+v", res)
	}
}

func TestAggregatorGlobalPlusLocalDeleted(t *testing.T) {
	f := rankerFixture(t)
	a := NewBatchAggregator()
	// A person matching the global at one station AND a local at another
	// has aggregate != query; sum = 1 + 0.5 > 1 → deleted (Algorithm 3's
	// rationale, Section IV-B).
	if err := a.AddFrom(f.Weights(), Report{Person: 3, WeightIDs: []WeightID{weightIDFor(t, f, 1, 0b11)}}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFrom(f.Weights(), Report{Person: 3, WeightIDs: []WeightID{weightIDFor(t, f, 1, 0b01)}}); err != nil {
		t.Fatal(err)
	}
	if res := a.TopK(1, 10); len(res) != 0 {
		t.Fatalf("global+local person survived: %+v", res)
	}
}

func TestAggregatorRankingOrder(t *testing.T) {
	f := rankerFixture(t)
	a := NewBatchAggregator()
	w1 := weightIDFor(t, f, 1, 0b01)   // 6/12
	wAll := weightIDFor(t, f, 1, 0b11) // 12/12
	// Person 1: full match. Persons 2, 3: half match (tie broken by ID).
	mustAdd(t, a, f, Report{Person: 1, WeightIDs: []WeightID{wAll}})
	mustAdd(t, a, f, Report{Person: 3, WeightIDs: []WeightID{w1}})
	mustAdd(t, a, f, Report{Person: 2, WeightIDs: []WeightID{w1}})

	res := a.TopK(1, 0)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Person != 1 || res[1].Person != 2 || res[2].Person != 3 {
		t.Fatalf("order = %d,%d,%d; want 1,2,3", res[0].Person, res[1].Person, res[2].Person)
	}
	// K truncates.
	if got := a.TopK(1, 2); len(got) != 2 {
		t.Fatalf("TopK(2) returned %d", len(got))
	}
}

// TestTopKTieBreakByPerson pins the order a capped search's prefix rule
// depends on: numerator descending, then person ascending, with sums above
// the denominator deleted. Among persons tied at D, the k smallest IDs win,
// whatever order their reports arrived in — so once k persons below a bound
// sit at D, no person at or above it can enter the answer.
func TestTopKTieBreakByPerson(t *testing.T) {
	f := rankerFixture(t)
	a := NewBatchAggregator()
	wAll := weightIDFor(t, f, 1, 0b11) // 12/12
	w1 := weightIDFor(t, f, 1, 0b01)   // 6/12
	for _, p := range []PersonID{90, 40, 70, 10, 60} {
		mustAdd(t, a, f, Report{Person: p, WeightIDs: []WeightID{wAll}})
	}
	mustAdd(t, a, f, Report{Person: 5, WeightIDs: []WeightID{w1}})   // below D: ranks after every tie
	mustAdd(t, a, f, Report{Person: 1, WeightIDs: []WeightID{wAll}}) // 24/12 once summed: deleted
	mustAdd(t, a, f, Report{Person: 1, WeightIDs: []WeightID{wAll}})
	got := a.TopK(1, 0)
	want := []PersonID{10, 40, 60, 70, 90, 5}
	if len(got) != len(want) {
		t.Fatalf("TopK = %+v, want persons %v", got, want)
	}
	for i, p := range want {
		if got[i].Person != p {
			t.Fatalf("TopK[%d] = person %d, want %d (all: %+v)", i, got[i].Person, p, got)
		}
	}
	if top3 := a.TopK(1, 3); len(top3) != 3 || top3[2].Person != 60 || top3[2].Numerator != top3[2].Denominator {
		t.Fatalf("TopK(3) = %+v, want persons 10, 40, 60 at 12/12", top3)
	}
}

// BenchmarkAggregateRank is the coordinator's merge of one query at the
// city_fanout shape: 64 station replies, each a few person-ascending runs
// sharing one pointer list, folded in with AddFrom and ranked with TopK(10).
// 5 200 reports is a full-range search, 800 a prefix round's share.
func BenchmarkAggregateRank(b *testing.B) {
	enc, err := NewEncoder(testParams(), 3)
	if err != nil {
		b.Fatal(err)
	}
	if err := enc.AddQuery(Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}, {2, 2, 2}, {4, 0, 1}, {0, 3, 3}}}); err != nil {
		b.Fatal(err)
	}
	table := enc.Filter().Weights()
	for _, n := range []int{5200, 800} {
		rng := rand.New(rand.NewSource(int64(n)))
		var replies [][]Report
		for s := 0; s < 64; s++ {
			var reply []Report
			for run := 0; run < 3; run++ {
				ids := []WeightID{WeightID(rng.Intn(len(table)))}
				persons := make([]PersonID, n/64/3)
				for i := range persons {
					persons[i] = PersonID(rng.Intn(20_000 * n / 5200))
				}
				slices.Sort(persons)
				for _, p := range persons {
					reply = append(reply, Report{Person: p, WeightIDs: ids})
				}
			}
			replies = append(replies, reply)
		}
		b.Run(fmt.Sprintf("reports=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := NewBatchAggregator()
				for _, reply := range replies {
					for _, r := range reply {
						if err := a.AddFrom(table, r); err != nil {
							b.Fatal(err)
						}
					}
				}
				if len(a.TopK(1, 10)) == 0 {
					b.Fatal("nothing ranked")
				}
			}
		})
	}
}

func mustAdd(t *testing.T, a *Aggregator, f *Filter, r Report) {
	t.Helper()
	if err := a.AddFrom(f.Weights(), r); err != nil {
		t.Fatal(err)
	}
}

func TestAggregatorMinNumeratorPerStation(t *testing.T) {
	f := rankerFixture(t)
	a := NewBatchAggregator()
	// One station report carrying two surviving weights of the same query
	// credits the smaller numerator (see Aggregator.AddFrom): 6, not 12.
	mustAdd(t, a, f, Report{Person: 5, WeightIDs: []WeightID{
		weightIDFor(t, f, 1, 0b01),
		weightIDFor(t, f, 1, 0b11),
	}})
	res := a.TopK(1, 10)
	if len(res) != 1 || res[0].Numerator != 6 {
		t.Fatalf("result = %+v, want numerator 6", res)
	}
}

func TestAggregatorSeparatesQueries(t *testing.T) {
	f := rankerFixture(t)
	a := NewBatchAggregator()
	// One report matching both queries counts toward each independently.
	mustAdd(t, a, f, Report{Person: 4, WeightIDs: []WeightID{
		weightIDFor(t, f, 1, 0b11),
		weightIDFor(t, f, 2, 0b01),
	}})
	r1 := a.TopK(1, 10)
	r2 := a.TopK(2, 10)
	if len(r1) != 1 || r1[0].Score() != 1.0 {
		t.Fatalf("query 1 results = %+v", r1)
	}
	if len(r2) != 1 || r2[0].Score() != 1.0 {
		t.Fatalf("query 2 results = %+v", r2)
	}
	qs := a.Queries()
	if len(qs) != 2 || qs[0] != 1 || qs[1] != 2 {
		t.Fatalf("Queries() = %v", qs)
	}
}

func TestAggregatorDanglingPointer(t *testing.T) {
	f := rankerFixture(t)
	a := NewBatchAggregator()
	if err := a.AddFrom(f.Weights(), Report{Person: 1, WeightIDs: []WeightID{WeightID(len(f.Weights()))}}); err == nil {
		t.Fatal("dangling pointer accepted")
	}
}

func TestAggregatorEmptyReportIsNoop(t *testing.T) {
	f := rankerFixture(t)
	a := NewBatchAggregator()
	mustAdd(t, a, f, Report{Person: 1})
	if got := len(a.Results(1)); got != 0 {
		t.Fatalf("empty report created %d candidates", got)
	}
	if res := a.TopK(1, 5); len(res) != 0 {
		t.Fatalf("empty report produced results: %+v", res)
	}
}

func TestSelectClosestWeights(t *testing.T) {
	f := rankerFixture(t)
	// Query 1 numerators: mask 01 -> 6, mask 10 -> 6, mask 11 -> 12.
	// Query 2 numerator: mask 01 -> 15.
	ids := []WeightID{
		weightIDFor(t, f, 1, 0b01),
		weightIDFor(t, f, 1, 0b11),
		weightIDFor(t, f, 2, 0b01),
	}
	// A piece of magnitude 11 is closest to query 1's numerator 12; query
	// 2's single entry is kept regardless.
	got, err := SelectClosestWeights(nil, f, ids, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("selected %d weights, want 2 (one per query)", len(got))
	}
	for _, id := range got {
		w, err := f.Weight(id)
		if err != nil {
			t.Fatal(err)
		}
		if w.Query == 1 && w.Numerator != 12 {
			t.Fatalf("query 1 selected numerator %d, want 12", w.Numerator)
		}
	}
	// Magnitude 5: closest is 6; the tie between the two mask entries with
	// numerator 6 resolves deterministically.
	got, err = SelectClosestWeights(nil, f, ids[:2], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("selected %d weights, want 1", len(got))
	}
	if w, _ := f.Weight(got[0]); w.Numerator != 6 {
		t.Fatalf("selected numerator %d, want 6", w.Numerator)
	}
	// Dangling pointer errors.
	if _, err := SelectClosestWeights(nil, f, []WeightID{WeightID(len(f.Weights()))}, 1); err == nil {
		t.Fatal("dangling pointer accepted")
	}
	// Empty input selects nothing.
	if got, err := SelectClosestWeights(nil, f, nil, 1); err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v, %v", got, err)
	}
}

func TestResultScore(t *testing.T) {
	r := Result{Numerator: 6, Denominator: 12}
	if r.Score() != 0.5 {
		t.Fatalf("Score = %v", r.Score())
	}
	if (Result{}).Score() != 0 {
		t.Fatal("zero-denominator score should be 0")
	}
}

// TestAggregatorReplicaDedup pins the replica-aware aggregation: for a person
// marked replicated, reports from several stations describe the same
// underlying pattern, so the highest-scoring report wins instead of the
// weights summing (which would delete the person as over-matched). Unmarked
// persons keep the paper's summation model even in the same aggregation.
func TestAggregatorReplicaDedup(t *testing.T) {
	f := rankerFixture(t)
	a := NewBatchAggregator()
	a.SetReplicated(func(p PersonID) bool { return p == 9 })

	// Person 9 is replicated on three stations; each replica matches the
	// full combination (weight 1). Summed this is the paper's deletion
	// counterexample; deduped it is one perfect match.
	full := weightIDFor(t, f, 1, 0b11)
	for i := 0; i < 3; i++ {
		if err := a.AddFrom(f.Weights(), Report{Person: 9, WeightIDs: []WeightID{full}}); err != nil {
			t.Fatal(err)
		}
	}
	// Person 7 is a genuine split across two stations and must still sum.
	if err := a.AddFrom(f.Weights(), Report{Person: 7, WeightIDs: []WeightID{weightIDFor(t, f, 1, 0b01)}}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFrom(f.Weights(), Report{Person: 7, WeightIDs: []WeightID{weightIDFor(t, f, 1, 0b10)}}); err != nil {
		t.Fatal(err)
	}

	res := a.TopK(1, 10)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(res), res)
	}
	for _, r := range res {
		if r.Score() != 1.0 {
			t.Fatalf("person %d scored %.3f, want 1", r.Person, r.Score())
		}
		// A replicated person counts one copy's station, however many
		// replicas answered; the split person counts both of its pieces.
		if want := map[PersonID]int{9: 1, 7: 2}[r.Person]; r.Stations != want {
			t.Fatalf("person %d reports %d stations, want %d", r.Person, r.Stations, want)
		}
	}
}

// TestAggregatorReplicaDedupHighestWins: replicas that drifted (one holds a
// slightly different copy) resolve to the best report, not the first or the
// sum.
func TestAggregatorReplicaDedupHighestWins(t *testing.T) {
	f := rankerFixture(t)
	a := NewBatchAggregator()
	a.SetReplicated(func(PersonID) bool { return true })

	half := weightIDFor(t, f, 1, 0b01) // numerator 6
	full := weightIDFor(t, f, 1, 0b11) // numerator 12
	// Lower score first, higher second, lower again: max must stick at 12.
	for _, id := range []WeightID{half, full, half} {
		if err := a.AddFrom(f.Weights(), Report{Person: 4, WeightIDs: []WeightID{id}}); err != nil {
			t.Fatal(err)
		}
	}
	res := a.TopK(1, 10)
	if len(res) != 1 || res[0].Score() != 1.0 || res[0].Stations != 1 {
		t.Fatalf("result = %+v, want score 1 from one copy", res)
	}
}
