package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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
}

// TestAggregatorResetForgets: an aggregation after Reset ranks as a new
// aggregator's, even when its first report names the weight table and
// pointer list the previous aggregation ended on.
func TestAggregatorResetForgets(t *testing.T) {
	f := rankerFixture(t)
	reports := []Report{
		{Person: 7, WeightIDs: []WeightID{weightIDFor(t, f, 1, 0b01)}},
		{Person: 7, WeightIDs: []WeightID{weightIDFor(t, f, 1, 0b10), weightIDFor(t, f, 2, 0b01)}},
	}
	fresh, reused := NewBatchAggregator(), NewBatchAggregator()
	reused.SetReplicated(func(PersonID) bool { return true })
	for _, r := range append(reports, reports[1]) {
		mustAdd(t, reused, f, r)
	}
	reused.TopK(1, 0)
	reused.Reset()
	for _, r := range reports[1:] {
		mustAdd(t, fresh, f, r)
		mustAdd(t, reused, f, r)
	}
	mustAdd(t, fresh, f, reports[0])
	mustAdd(t, reused, f, reports[0])
	for q := QueryID(1); q <= 2; q++ {
		if got, want := reused.Results(q), fresh.Results(q); !slices.Equal(got, want) {
			t.Fatalf("query %d after Reset: %+v, want %+v", q, got, want)
		}
	}
	if res := reused.TopK(1, 0); len(res) != 1 || res[0].Score() != 1 || res[0].Stations != 2 {
		t.Fatalf("TopK after Reset = %+v, want person 7 at 1 from 2 stations, summed", res)
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

// mapAggregator is Algorithm 3's aggregation as a map per query of a running
// sum per person, updated report by report: the model the flat aggregator
// is held to.
type mapAggregator struct {
	sums       map[QueryID]map[PersonID]*Result
	denoms     map[QueryID]int64
	replicated func(PersonID) bool
}

func (m *mapAggregator) add(table []WeightEntry, r Report) error {
	least := make(map[QueryID]WeightEntry)
	for _, id := range r.WeightIDs {
		if int(id) >= len(table) {
			return fmt.Errorf("dangling %d", id)
		}
		w := table[id]
		if l, ok := least[w.Query]; !ok || w.Numerator < l.Numerator {
			least[w.Query] = w
		}
		m.denoms[w.Query] = w.Denominator
	}
	for q, w := range least {
		if m.sums[q] == nil {
			m.sums[q] = make(map[PersonID]*Result)
		}
		sum := m.sums[q][r.Person]
		if sum == nil {
			sum = &Result{Person: r.Person}
			m.sums[q][r.Person] = sum
		}
		if m.replicated != nil && m.replicated(r.Person) {
			sum.Numerator, sum.Stations = max(sum.Numerator, w.Numerator), 1
		} else {
			sum.Numerator, sum.Stations = sum.Numerator+w.Numerator, sum.Stations+1
		}
	}
	return nil
}

// results lists q's sums person ascending.
func (m *mapAggregator) results(q QueryID) []Result {
	out := []Result{}
	for _, r := range m.sums[q] {
		out = append(out, Result{Person: r.Person, Numerator: r.Numerator, Denominator: m.denoms[q], Stations: r.Stations})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Person < out[j].Person })
	return out
}

// topK deletes sums above the denominator, sorts the rest and keeps k.
func (m *mapAggregator) topK(q QueryID, k int) []Result {
	kept := []Result{}
	for _, r := range m.results(q) {
		if r.Numerator <= r.Denominator {
			kept = append(kept, r)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Numerator != kept[j].Numerator {
			return kept[i].Numerator > kept[j].Numerator
		}
		return kept[i].Person < kept[j].Person
	})
	if k > 0 && len(kept) > k {
		kept = kept[:k]
	}
	return kept
}

// TestAggregatorMatchesMapModel holds the aggregator to the map model over
// random rounds: several weight tables of one set of queries, persons
// reported by many stations, summed or replicated, and rankings between the
// rounds, so a ranking folds reports into entries an earlier ranking
// folded. Each round's reports arrive as decoded replies do: runs of reports
// sharing one pointer list of one to three pointers (a dangling one now and
// then), every list a slice of one buffer that the next reply overwrites.
// A fresh aggregator and one Reset after serving the previous seed's
// aggregation are both checked: Results and TopK at every k agree with the
// model after every round.
func TestAggregatorMatchesMapModel(t *testing.T) {
	warm := NewBatchAggregator()
	var buf []WeightID // the reply buffer, overwritten reply by reply
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		queries := 1 + rng.Intn(5)
		denoms := make([]int64, queries)
		for q := range denoms {
			denoms[q] = 10 + rng.Int63n(30)
		}
		var pred func(PersonID) bool
		if seed%2 == 0 {
			pred = func(p PersonID) bool { return p%3 == 0 }
		}
		warm.Reset()
		aggs := map[string]*Aggregator{"fresh": NewBatchAggregator(), "reset": warm}
		for _, a := range aggs {
			a.SetReplicated(pred)
		}
		model := &mapAggregator{sums: make(map[QueryID]map[PersonID]*Result), denoms: make(map[QueryID]int64), replicated: pred}
		for round := 0; round < 4; round++ {
			table := make([]WeightEntry, 1+rng.Intn(12))
			for i := range table {
				q := rng.Intn(queries)
				table[i] = WeightEntry{Query: QueryID(q + 1), Numerator: 1 + rng.Int63n(denoms[q]), Denominator: denoms[q]}
			}
			for range rng.Intn(40) {
				// One reply: one to three runs, each a list in buf and the
				// reports that share it.
				buf = buf[:0]
				var reports []Report
				for range 1 + rng.Intn(3) {
					lo := len(buf)
					for range 1 + rng.Intn(3) {
						buf = append(buf, WeightID(rng.Intn(len(table)+len(table)/8)))
					}
					slices.Sort(buf[lo:])
					buf = append(buf[:lo], slices.Compact(buf[lo:])...)
					list := buf[lo:len(buf):len(buf)]
					for range 1 + rng.Intn(12) {
						reports = append(reports, Report{Person: PersonID(rng.Intn(60)), WeightIDs: list})
					}
				}
				for _, r := range reports {
					want := model.add(table, r)
					for name, a := range aggs {
						if err := a.AddFrom(table, r); (err == nil) != (want == nil) {
							t.Fatalf("seed %d %s: AddFrom(%v) = %v, model %v", seed, name, r, err, want)
						}
					}
				}
			}
			for name, a := range aggs {
				for q := QueryID(1); q <= QueryID(queries); q++ {
					if got, want := a.Results(q), model.results(q); !slices.Equal(got, want) {
						t.Fatalf("seed %d round %d %s query %d: Results\n%v\nmodel\n%v", seed, round, name, q, got, want)
					}
					for _, k := range []int{0, 1, 3, 7, 100} {
						if got, want := a.TopK(q, k), model.topK(q, k); !slices.Equal(got, want) {
							t.Fatalf("seed %d round %d %s query %d: TopK(%d)\n%v\nmodel\n%v", seed, round, name, q, k, got, want)
						}
					}
				}
			}
		}
	}
}
