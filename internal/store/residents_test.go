package store_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/wire"
)

// checkAgainstModel holds r to the model after every step: persons strictly
// ascending, rows parallel, equal to the model's and capped at their length,
// the derived figures right, Find right for residents and for the gaps.
func checkAgainstModel(t *testing.T, step int, r *store.Residents, model map[core.PersonID]pattern.Pattern) {
	t.Helper()
	persons, locals := r.Persons(), r.Locals()
	if len(persons) != len(model) || len(locals) != len(model) || r.Len() != len(model) {
		t.Fatalf("step %d: %d persons, %d locals, Len %d; model holds %d", step, len(persons), len(locals), r.Len(), len(model))
	}
	length := 0
	for i, p := range persons {
		if i > 0 && persons[i-1] >= p {
			t.Fatalf("step %d: persons not ascending at %d: %d then %d", step, i, persons[i-1], p)
		}
		if !locals[i].Equal(model[p]) {
			t.Fatalf("step %d: person %d holds %v, model %v", step, p, locals[i], model[p])
		}
		if cap(locals[i]) != len(locals[i]) {
			t.Fatalf("step %d: person %d's row has cap %d over len %d: an append would reach its neighbor", step, p, cap(locals[i]), len(locals[i]))
		}
		length = len(locals[i])
		if at, ok := r.Find(p); !ok || at != i {
			t.Fatalf("step %d: Find(%d) = %d, %v; want %d, true", step, p, at, ok, i)
		}
		if at, ok := r.Find(p + 1); !ok && at != i+1 {
			t.Fatalf("step %d: Find(%d) (absent) = %d, want insertion point %d", step, p+1, at, i+1)
		}
	}
	if r.Length() != length || r.Bytes() != uint64(8*length*len(model)) {
		t.Fatalf("step %d: Length %d Bytes %d, want %d and %d", step, r.Length(), r.Bytes(), length, 8*length*len(model))
	}
}

// TestResidentsAgainstMapModel drives seeded random upserts, replacements,
// evictions, all-zero and foreign-length rows and the image round trips
// against a plain map, checking every invariant after every step and that a
// row an eviction released is the next one handed out.
func TestResidentsAgainstMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r store.Residents
		model := map[core.PersonID]pattern.Pattern{}
		released := map[*int64]bool{} // first cells of rows evicted and not yet reused
		length := 3
		row := func(n int) pattern.Pattern {
			p := make(pattern.Pattern, n)
			for i := range p {
				p[i] = rng.Int63n(9) + 1
			}
			return p
		}
		for step := 0; step < 4000; step++ {
			p := core.PersonID(rng.Intn(400) * 2) // even IDs, so p+1 is always a gap
			switch op := rng.Intn(20); {
			case op < 10: // upsert: new person or replacement
				in := row(length)
				_, resident := model[p]
				if !r.Upsert(p, in) {
					t.Fatalf("step %d: well-formed upsert of %d refused", step, p)
				}
				model[p] = in.Clone()
				in[0] = -99 // the store copied: the caller's row is the caller's again
				if !resident && len(released) > 0 {
					at, _ := r.Find(p)
					if first := &r.Locals()[at][0]; !released[first] {
						t.Fatalf("step %d: new person %d got a fresh row while %d released rows wait", step, p, len(released))
					} else {
						delete(released, first)
					}
				}
			case op < 15: // evict, resident or not
				_, resident := model[p]
				if resident && len(model) > 1 {
					at, _ := r.Find(p)
					released[&r.Locals()[at][0]] = true
				}
				if r.Evict(p) != resident {
					t.Fatalf("step %d: Evict(%d) = %v, resident = %v", step, p, !resident, resident)
				}
				delete(model, p)
				if len(model) == 0 {
					released = map[*int64]bool{} // an emptied store lets its chunks go
				}
			case op == 15: // all-zero row
				if r.Upsert(p, make(pattern.Pattern, length)) {
					t.Fatalf("step %d: all-zero row applied", step)
				}
			case op == 16: // foreign length: applied only by an empty store
				in := row(length + 1)
				applied := r.Upsert(p, in)
				if applied != (len(model) == 0) {
					t.Fatalf("step %d: length-%d row applied = %v beside %d length-%d residents", step, length+1, applied, len(model), length)
				}
				if applied {
					model[p] = in
					length++
				}
			case op == 17: // Take / Adopt: the state moves out and back untouched
				img := r.Take()
				if r.Len() != 0 || r.Length() != 0 {
					t.Fatalf("step %d: Take left %d residents behind", step, r.Len())
				}
				r.Adopt(img)
				released = map[*int64]bool{}
			case op == 18: // Image / Load: an independent copy, and back
				img := r.Image()
				for q := range model {
					r.Upsert(q, row(length))
				}
				var again store.Residents
				if err := again.Load(img); err != nil {
					t.Fatal(err)
				}
				checkAgainstModel(t, step, &again, model) // the rewrite did not show through img
				r = again
				released = map[*int64]bool{}
			default: // Load of a hand-built image: the rules apply, not the order
				img := store.Image{}
				for q, l := range model {
					img.Persons = append(img.Persons, q, q+1, q+3)
					img.Locals = append(img.Locals, l, make(pattern.Pattern, length), row(length+2))
				}
				if len(img.Persons) > 0 && len(img.Locals[0]) != length {
					t.Fatalf("step %d: test bug: first image row must carry the model's length", step)
				}
				if err := r.Load(img); err != nil {
					t.Fatal(err)
				}
				released = map[*int64]bool{}
			}
			checkAgainstModel(t, step, &r, model)
		}
	}
}

// TestResidentsLoadRejectsRaggedImage: persons and locals must be parallel.
func TestResidentsLoadRejectsRaggedImage(t *testing.T) {
	var r store.Residents
	if err := r.Load(store.Image{Persons: []core.PersonID{1, 2}, Locals: []pattern.Pattern{{1}}}); err == nil {
		t.Fatal("image with 2 persons and 1 local loaded")
	}
}

// TestMemoryRecoverIsIndependent: the image a backend hands out is a deep
// copy — rows are overwritten in place now, so a shared row would change
// under whoever holds the image.
func TestMemoryRecoverIsIndependent(t *testing.T) {
	m := store.NewMemory()
	if err := m.Append(ingest([]core.PersonID{4, 8}, []pattern.Pattern{pat(1, 2, 3), pat(4, 5, 6)})); err != nil {
		t.Fatal(err)
	}
	img, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(ingest([]core.PersonID{4, 6}, []pattern.Pattern{pat(7, 7, 7), pat(9, 9, 9)})); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(evict(8)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img.Persons, []core.PersonID{4, 8}) || !reflect.DeepEqual(img.Locals, []pattern.Pattern{pat(1, 2, 3), pat(4, 5, 6)}) {
		t.Fatalf("image changed under later appends: %v %v", img.Persons, img.Locals)
	}
	wantImage(t, m, []core.PersonID{4, 6}, []pattern.Pattern{pat(7, 7, 7), pat(9, 9, 9)})
}

// walkFixture is one station's worth of rows and a filter to walk them with,
// in the two shapes the benchmark's workloads have.
type walkFixture struct {
	length  int
	persons []core.PersonID
	rows    []pattern.Pattern // one allocation each, like rows decoded one message at a time
	filter  *core.Filter
}

// newWalkFixture builds one of them. Sparse: uniform integers in [0, 10^6),
// ε = 1, queries that are residents' own patterns — nearly every resident
// fails the first probe. Dense: city-like rows drawn from a few volume
// levels, ε = 0 — most residents share cells with the queries, so the walk
// runs deep into every row.
func newWalkFixture(tb testing.TB, dense bool, residents int) walkFixture {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	fx := walkFixture{length: 24}
	params := core.Params{Bits: 1 << 16, Hashes: 3, Samples: 8, Epsilon: 1, Tolerance: core.ToleranceScaled, Seed: 7}
	if dense {
		params.Epsilon = 0
	}
	for i := 0; i < residents; i++ {
		row := make(pattern.Pattern, fx.length)
		for j := range row {
			if dense {
				row[j] = int64(rng.Intn(3)) * 10
			} else {
				row[j] = rng.Int63n(1_000_000)
			}
		}
		if row.Sum() == 0 {
			row[0] = 10
		}
		fx.persons = append(fx.persons, core.PersonID(i*2+1))
		fx.rows = append(fx.rows, row)
	}
	enc, err := core.NewEncoder(params, fx.length)
	if err != nil {
		tb.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		if err := enc.AddQuery(core.Query{ID: core.QueryID(q + 1), Locals: []pattern.Pattern{fx.rows[q*97%residents]}}); err != nil {
			tb.Fatal(err)
		}
	}
	fx.filter = enc.Filter()
	return fx
}

// churned returns the fixture's rows in a store that took them in shuffled
// order and then had a third replaced and a tenth evicted and re-inserted, so
// its views are not the trivial one-chunk layout.
func (fx walkFixture) churned(tb testing.TB) *store.Residents {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	var r store.Residents
	junk := make(pattern.Pattern, fx.length)
	for i := range junk {
		junk[i] = 1
	}
	for _, i := range rng.Perm(len(fx.persons)) {
		first := fx.rows[i]
		if i%3 == 0 {
			first = junk // replaced in place below
		}
		r.Upsert(fx.persons[i], first)
	}
	for i := range fx.persons {
		if i%10 == 0 {
			r.Evict(fx.persons[i])
		}
	}
	for _, i := range rng.Perm(len(fx.persons)) {
		if i%3 == 0 || i%10 == 0 {
			r.Upsert(fx.persons[i], fx.rows[i])
		}
	}
	if r.Len() != len(fx.persons) {
		tb.Fatalf("churned store holds %d rows, want %d", r.Len(), len(fx.persons))
	}
	return &r
}

// TestWalkersSeeStoreViewsAsPlainSlices: core.MatchResidents and index.Build
// take the store's Persons/Locals views; what they compute over them is
// byte-equal to what they compute over the same rows as plain slices.
func TestWalkersSeeStoreViewsAsPlainSlices(t *testing.T) {
	for _, dense := range []bool{false, true} {
		fx := newWalkFixture(t, dense, 1500)
		r := fx.churned(t)
		if !reflect.DeepEqual(r.Persons(), fx.persons) {
			t.Fatalf("dense=%v: store persons differ from the fixture's", dense)
		}
		for _, workers := range []int{1, 3} {
			want, err := core.MatchResidents(fx.filter, fx.persons, fx.rows, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.MatchResidents(fx.filter, r.Persons(), r.Locals(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || (dense && len(want) < 4) {
				t.Fatalf("dense=%v: fixture yields %d reports: the comparison would be vacuous", dense, len(want))
			}
			wantBytes := wire.EncodeBatchReply(wire.BatchReply{Station: 1, Queries: 4, Reports: want}).Payload
			gotBytes := wire.EncodeBatchReply(wire.BatchReply{Station: 1, Queries: 4, Reports: got}).Payload
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("dense=%v workers=%d: reports over store views differ from plain slices (%d vs %d reports)", dense, workers, len(got), len(want))
			}
		}
		wantSum, err := index.Build(fx.length, fx.rows)
		if err != nil {
			t.Fatal(err)
		}
		gotSum, err := index.Build(fx.length, r.Locals())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.EncodeSummaryPayload(gotSum, 1), wire.EncodeSummaryPayload(wantSum, 1)) {
			t.Fatalf("dense=%v: digest over store views differs from plain slices", dense)
		}
	}
}

// BenchmarkMatchResidents walks one station's residents with one worker over
// the store's views and over the layout the station had before the store
// owned its rows: one allocation per row, allocated in arrival order.
func BenchmarkMatchResidents(b *testing.B) {
	for _, shape := range []struct {
		name  string
		dense bool
	}{{"sparse", false}, {"dense", true}} {
		fx := newWalkFixture(b, shape.dense, 25_000)
		r := fx.churned(b)
		scattered := make([]pattern.Pattern, len(fx.rows))
		for _, i := range rand.New(rand.NewSource(3)).Perm(len(fx.rows)) {
			scattered[i] = fx.rows[i].Clone()
		}
		for _, layout := range []struct {
			name   string
			locals []pattern.Pattern
		}{{"store", r.Locals()}, {"scattered", scattered}} {
			b.Run(shape.name+"/"+layout.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.MatchResidents(fx.filter, fx.persons, layout.locals, 1); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(fx.persons)), "ns/resident")
			})
		}
	}
}

// BenchmarkResidentsUpsert measures the store's two write paths on a
// 25 000-resident station: replacing residents in place (the steady state of
// a streamed workload) and a sorted bulk load into an empty store.
func BenchmarkResidentsUpsert(b *testing.B) {
	fx := newWalkFixture(b, false, 25_000)
	order := rand.New(rand.NewSource(9)).Perm(len(fx.persons))
	b.Run("replace", func(b *testing.B) {
		r := fx.churned(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := order[i%len(order)]
			r.Upsert(fx.persons[k], fx.rows[(k+1)%len(fx.rows)])
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r store.Residents
			for k, p := range fx.persons {
				r.Upsert(p, fx.rows[k])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(fx.persons)), "ns/row")
	})
}
