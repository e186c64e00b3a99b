package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dimatch/internal/cdr"
	"dimatch/internal/pattern"
)

// batchFilter builds a filter over a handful of queries for the pool tests.
func batchFilter(t testing.TB, queries []Query) *Filter {
	t.Helper()
	params := Params{
		Bits:    1 << 14,
		Hashes:  3,
		Samples: 4,
		Epsilon: 0,
		Seed:    7,
	}
	enc, err := NewEncoder(params, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	return enc.Filter()
}

// TestMatchResidentsMatchesSerialWalk pins the pool against the reference
// serial walk: any worker count must produce the identical report list.
func TestMatchResidentsMatchesSerialWalk(t *testing.T) {
	queries := []Query{
		{ID: 1, Locals: []pattern.Pattern{{1, 2, 3, 4}, {2, 0, 1, 1}}},
		{ID: 2, Locals: []pattern.Pattern{{5, 5, 5, 5}}},
	}
	f := batchFilter(t, queries)

	var persons []PersonID
	var locals []pattern.Pattern
	// The query pieces themselves, their sums, and noise.
	candidates := []pattern.Pattern{
		{1, 2, 3, 4}, {2, 0, 1, 1}, {3, 2, 4, 5}, {5, 5, 5, 5},
		{9, 9, 9, 9}, {0, 0, 0, 1}, {1, 1, 1, 1}, {2, 2, 2, 2},
	}
	for i := 0; i < 64; i++ {
		persons = append(persons, PersonID(i*3+1))
		locals = append(locals, candidates[i%len(candidates)])
	}

	want, err := MatchResidents(f, persons, locals, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial walk matched nothing; test data broken")
	}
	for _, workers := range []int{0, 2, 3, 7, 64, 1000} {
		got, err := MatchResidents(f, persons, locals, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Person != want[i].Person {
				t.Fatalf("workers=%d: report %d person %d, want %d", workers, i, got[i].Person, want[i].Person)
			}
			if len(got[i].WeightIDs) != len(want[i].WeightIDs) {
				t.Fatalf("workers=%d: report %d weight count diverged", workers, i)
			}
			for j := range want[i].WeightIDs {
				if got[i].WeightIDs[j] != want[i].WeightIDs[j] {
					t.Fatalf("workers=%d: report %d weight %d diverged", workers, i, j)
				}
			}
		}
	}
}

func TestMatchResidentsEdgeCases(t *testing.T) {
	f := batchFilter(t, []Query{{ID: 1, Locals: []pattern.Pattern{{1, 2, 3, 4}}}})
	if _, err := MatchResidents(f, []PersonID{1}, []pattern.Pattern(nil), 0); err == nil {
		t.Fatal("mismatched parallel slices accepted")
	}
	got, err := MatchResidents(f, nil, []pattern.Pattern(nil), 0)
	if err != nil || got != nil {
		t.Fatalf("empty store: %v, %v", got, err)
	}
	// A resident from another time window is skipped, not an error.
	got, err = MatchResidents(f, []PersonID{5}, []pattern.Pattern{{1, 2}}, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("length-mismatched resident: %v, %v", got, err)
	}
}

// TestAggregatorAddFromMergesTables models the mixed-version search: the
// same person is reported once via a combined (batch) table and once via a
// per-query (legacy) table; the accumulation must equal two reports through
// a single table.
func TestAggregatorAddFromMergesTables(t *testing.T) {
	q := Query{ID: 3, Locals: []pattern.Pattern{{1, 2, 3, 4}, {2, 0, 1, 1}}}
	other := Query{ID: 9, Locals: []pattern.Pattern{{4, 4, 4, 4}}}
	combined := batchFilter(t, []Query{q, other})
	single := batchFilter(t, []Query{q})

	findWeight := func(f *Filter, query QueryID, num int64) WeightID {
		for i, w := range f.Weights() {
			if w.Query == query && w.Numerator == num {
				return WeightID(i)
			}
		}
		t.Fatalf("no weight entry for query %d numerator %d", query, num)
		return 0
	}
	// Piece sums: local 0 sums to 10, local 1 sums to 4; global is 14.
	wCombined := findWeight(combined, 3, 10)
	wSingle := findWeight(single, 3, 4)

	agg := NewBatchAggregator()
	if err := agg.AddFrom(combined.Weights(), Report{Person: 77, WeightIDs: []WeightID{wCombined}}); err != nil {
		t.Fatal(err)
	}
	if err := agg.AddFrom(single.Weights(), Report{Person: 77, WeightIDs: []WeightID{wSingle}}); err != nil {
		t.Fatal(err)
	}
	results := agg.TopK(3, 0)
	if len(results) != 1 {
		t.Fatalf("%d results, want 1", len(results))
	}
	r := results[0]
	if r.Person != 77 || r.Numerator != 14 || r.Denominator != 14 || r.Stations != 2 {
		t.Fatalf("merged result %+v, want 14/14 over 2 stations", r)
	}
	if r.Score() != 1.0 {
		t.Fatalf("score %v, want 1 (complete partition across tables)", r.Score())
	}

	// A dangling pointer against the *given* table still fails, even if the
	// other table is longer.
	if err := agg.AddFrom(single.Weights(), Report{Person: 1, WeightIDs: []WeightID{WeightID(len(single.Weights()))}}); err == nil {
		t.Fatal("dangling pointer accepted")
	}
}

// denseWalk is a station round where most residents report: sixteen queries
// over 2 048 residents drawn from a few dozen patterns.
func denseWalk(tb testing.TB) (*Filter, []PersonID, []pattern.Pattern) {
	queries := make([]Query, 16)
	for i := range queries {
		queries[i] = Query{ID: QueryID(i + 1), Locals: []pattern.Pattern{
			{int64(i + 1), 2, 3, 4}, {2, int64(i % 3), 1, 1},
		}}
	}
	f := batchFilter(tb, queries)
	var persons []PersonID
	var locals []pattern.Pattern
	for i := 0; i < 2048; i++ {
		persons = append(persons, PersonID(i))
		locals = append(locals, pattern.Pattern{int64(i % 7), 2, 3, int64(i % 5)})
	}
	return f, persons, locals
}

// TestAllocsMatchResidents: a worker collects its reports' pointers in one
// arena, so the dense walk allocates per worker and per doubling of a
// worker's output — not per report, as a slice per matching resident did.
func TestAllocsMatchResidents(t *testing.T) {
	f, persons, locals := denseWalk(t)
	for _, workers := range []int{1, 2, 4} {
		reports, err := MatchResidents(f, persons, locals, workers)
		if err != nil || len(reports) < 512 {
			t.Fatalf("workers=%d: %d reports, %v; the dense walk should report at least 512", workers, len(reports), err)
		}
		n := testing.AllocsPerRun(5, func() { _, _ = MatchResidents(f, persons, locals, workers) })
		if n > float64(40*workers) {
			t.Errorf("workers=%d: %v allocs for %d reports; want at most %d", workers, n, len(reports), 40*workers)
		}
		t.Logf("workers=%d: %v allocs for %d reports", workers, n, len(reports))
	}
}

// BenchmarkMatchResidents measures the station-side batch walk — the probe
// path the batched pipeline leans on.
func BenchmarkMatchResidents(b *testing.B) {
	f, persons, locals := denseWalk(b)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MatchResidents(f, persons, locals, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pool", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MatchResidents(f, persons, locals, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMatcherProbe pins the allocation-free probe path: one Match call
// per iteration over a warm Matcher.
func BenchmarkMatcherProbe(b *testing.B) {
	f := batchFilter(b, []Query{
		{ID: 1, Locals: []pattern.Pattern{{1, 2, 3, 4}, {2, 0, 1, 1}}},
	})
	m := NewMatcher(f)
	p := pattern.Pattern{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Match(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWalkHoldsReportsOnce: on a 16-query round over the largest station of
// a benchmark-shaped city (20 000 persons, 64 stations, 3 days × 8
// intervals), a 2-worker walk reports byte-for-byte what a 1-worker walk
// does and holds each report once: it keeps no more than the 1-worker walk
// plus its second worker's scratch — matcher buffers and the slack its hits
// and pointer arena grew with.
func TestWalkHoldsReportsOnce(t *testing.T) {
	const persons = 20_000
	city, err := cdr.Generate(cdr.Config{Seed: 20120612, Persons: persons, Stations: 64, Days: 3, IntervalsPerDay: 8, VolumeLevels: 17})
	if err != nil {
		t.Fatal(err)
	}
	var largest map[cdr.PersonID]pattern.Pattern
	for _, s := range city.StationIDs() {
		if l := city.StationLocals(s); len(l) > len(largest) {
			largest = l
		}
	}
	ids := make([]PersonID, 0, len(largest))
	for p := range largest {
		ids = append(ids, PersonID(p))
	}
	slices.Sort(ids)
	rows := make([][]int32, len(ids))
	for i, p := range ids {
		rows[i] = pattern.AppendCells(nil, largest[cdr.PersonID(p)])
	}
	rng := rand.New(rand.NewSource(1))
	var queries []Query
	for len(queries) < 16 {
		if locals := city.QueryLocalsOf(cdr.PersonID(rng.Intn(persons))); len(locals) >= 2 {
			queries = append(queries, Query{ID: QueryID(len(queries) + 1), Locals: locals})
		}
	}
	params, err := SizedParams(Params{}, city.Length(), queries, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(params, city.Length())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	var one, two Walk
	want, err := WalkMatch(&one, enc.Filter(), ids, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := WalkMatch(&two, enc.Filter(), ids, rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 100 {
		t.Fatalf("the round reports %d residents: too few to tell", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("2-worker walk reports %d residents, 1-worker %d, or other pointers", len(got), len(want))
	}
	scratch := 0
	for _, wk := range two.workers {
		scratch += 8*cap(wk.m.valBuf) +
			8*(cap(wk.hits)-len(wk.hits)) + 4*(cap(wk.arena)-len(wk.arena))
	}
	t.Logf("%d residents, %d reports: 1 worker keeps %d B, 2 workers %d B, of which per-worker scratch %d B", len(ids), len(want), one.Bytes(), two.Bytes(), scratch)
	if two.Bytes() > one.Bytes()+scratch {
		t.Fatalf("2 workers keep %d B, over the 1-worker walk's %d B plus %d B of per-worker scratch", two.Bytes(), one.Bytes(), scratch)
	}
}
