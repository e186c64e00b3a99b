package store_test

import (
	"bytes"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/store/wal"
	"dimatch/internal/wire"
)

// checkAgainstModel holds r to the model after every step: persons strictly
// ascending, rows parallel, equal to the model's and capped at their length,
// the derived figures right, Find right for residents and for the gaps.
func checkAgainstModel(t *testing.T, step int, r *store.Residents, model map[core.PersonID][]int32) {
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
		if !slices.Equal(locals[i], model[p]) {
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

// bulkBatch draws a batch for AdoptRows over a store whose residents the
// model holds, of the given kind: 0 and 1 qualify (persons ascending above
// every resident, rows of the store's length in one exactly sized arena, as
// wire decoding makes them); every other kind breaks one rule — 2 unsorted,
// 3 a duplicate person, 4 an all-zero row, 5 a row of a foreign length, 6 a
// person at or below the last resident, 7 a row with spare capacity — and
// must fall back to the copy.
func bulkBatch(rng *rand.Rand, kind, length int, model map[core.PersonID][]int32) ([]core.PersonID, [][]int32) {
	n := 2 + rng.Intn(4)
	last := core.PersonID(0)
	for p := range model {
		last = max(last, p)
	}
	persons := make([]core.PersonID, n)
	for i := range persons {
		last += core.PersonID(2 + 2*rng.Intn(3))
		persons[i] = last
	}
	arena := make([]int32, n*length)
	locals := make([][]int32, n)
	for i := range locals {
		locals[i] = arena[i*length : (i+1)*length : (i+1)*length]
		drawCells(rng, locals[i])
	}
	at := 1 + rng.Intn(n-1) // the rule breaks past the first row
	switch kind {
	case 2:
		persons[at-1], persons[at] = persons[at], persons[at-1]
	case 3:
		persons[at] = persons[at-1]
	case 4:
		clear(locals[at])
	case 5:
		locals[at] = make([]int32, length+1)
		locals[at][0] = 1
	case 6:
		if len(model) > 0 {
			for p := range model {
				persons[0] = p // resident: at or below the last one
				break
			}
		} else {
			persons[at-1], persons[at] = persons[at], persons[at-1]
		}
	case 7:
		locals[at] = append(make([]int32, 0, length+4), locals[at]...)
	}
	return persons, locals
}

// drawCells fills row with cells in 1..9, but for a cell past the first at
// ±math.MaxInt32 or math.MinInt32 now and then: the edges of the int32
// domain. A row they and the small cells cancel to zero is nudged off it, so
// no row sums to zero.
func drawCells(rng *rand.Rand, row []int32) {
	for g := range row {
		switch {
		case g > 0 && rng.Intn(6) == 0:
			row[g] = []int32{math.MaxInt32, -math.MaxInt32, math.MinInt32}[rng.Intn(3)]
		default:
			row[g] = int32(rng.Intn(9) + 1)
		}
	}
	if pattern.RowSum(row) == 0 {
		row[0]++
	}
}

// TestResidentsAgainstMapModel drives seeded random upserts, replacements,
// evictions, all-zero and foreign-length rows, bulk batches and the image
// round trips against a plain map, with cells at the edges of the int32
// domain, checking every invariant after every step and that a row an
// eviction released is the next one handed out. After every seed the store
// goes through a WAL — appended, snapshotted — and recovers to the model
// in int32 rows and in Patterns. A bulk
// batch that qualifies must be adopted, rows and all, unless released rows
// wait; any other must be refused untouched, and folding it row by row
// through Upsert — what a station and a WAL replay do then — must reach the
// model's state too, filling the released rows first.
func TestResidentsAgainstMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r store.Residents
		model := map[core.PersonID][]int32{}
		released := map[*int32]bool{} // first cells of rows evicted and not yet reused
		length := 3
		row := func(n int) []int32 {
			p := make([]int32, n)
			drawCells(rng, p)
			return p
		}
		adoptions, deferred := 0, 0
		// reused checks that a person new to the store took a released row
		// while any waits.
		reused := func(step int, q core.PersonID) {
			if len(released) == 0 {
				return
			}
			at, _ := r.Find(q)
			if first := &r.Locals()[at][0]; !released[first] {
				t.Fatalf("step %d: new person %d got a fresh row while %d released rows wait", step, q, len(released))
			} else {
				delete(released, first)
			}
		}
		evict := func(step int, q core.PersonID) {
			_, resident := model[q]
			if resident && len(model) > 1 {
				at, _ := r.Find(q)
				released[&r.Locals()[at][0]] = true
			}
			if r.Evict(q) != resident {
				t.Fatalf("step %d: Evict(%d) = %v, resident = %v", step, q, !resident, resident)
			}
			delete(model, q)
			if len(model) == 0 {
				released = map[*int32]bool{} // an emptied store lets its chunks go
			}
		}
		for step := 0; step < 4000; step++ {
			p := core.PersonID(rng.Intn(400) * 2) // even IDs, so p+1 is always a gap
			switch op := rng.Intn(24); {
			case op >= 20: // bulk batch: adopted whole, or refused and upserted
				// Bulk persons land above every resident, beyond the single
				// ops' IDs below 800: expire them now and then, as a
				// stream's TTL would, so the store keeps its size.
				if r.Len() > 0 && r.Persons()[r.Len()-1] > 1600 {
					for _, q := range slices.Clone(r.Persons()) {
						if q >= 800 {
							evict(step, q)
						}
					}
				}
				kind := rng.Intn(8)
				persons, locals := bulkBatch(rng, kind, length, model)
				before := slices.Clone(persons)
				adopted := r.AdoptRows(persons, locals)
				// A qualifying batch is refused while released rows wait:
				// the copy below must fill those rows first.
				if adopted != (kind < 2 && len(released) == 0) {
					t.Fatalf("step %d: AdoptRows of a kind-%d batch with %d released rows waiting = %v", step, kind, len(released), adopted)
				}
				switch {
				case adopted:
					adoptions++
				case kind < 2:
					deferred++
				}
				if !slices.Equal(persons, before) {
					t.Fatalf("step %d: AdoptRows rewrote the batch's persons", step)
				}
				if !adopted {
					for i, q := range persons {
						_, resident := model[q]
						if r.Upsert(q, locals[i]) {
							model[q] = slices.Clone(locals[i])
							if !resident {
								reused(step, q)
							}
						}
					}
					break
				}
				for i, q := range persons {
					model[q] = slices.Clone(locals[i])
					if at, _ := r.Find(q); &r.Locals()[at][0] != &locals[i][0] {
						t.Fatalf("step %d: adopted person %d's row is a copy", step, q)
					}
				}
			case op < 10: // upsert: new person or replacement
				in := row(length)
				_, resident := model[p]
				if !r.Upsert(p, in) {
					t.Fatalf("step %d: well-formed upsert of %d refused", step, p)
				}
				model[p] = slices.Clone(in)
				in[0] = -99 // the store copied: the caller's row is the caller's again
				if !resident {
					reused(step, p)
				}
			case op < 15: // evict, resident or not
				evict(step, p)
			case op == 15: // all-zero row
				if r.Upsert(p, make([]int32, length)) {
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
				released = map[*int32]bool{}
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
				released = map[*int32]bool{}
			default: // Load of a hand-built image: the rules apply, not the order
				img := store.CellImage{}
				for q, l := range model {
					img.Persons = append(img.Persons, q, q+1, q+3)
					img.Locals = append(img.Locals, l, make([]int32, length), row(length+2))
				}
				if len(img.Persons) > 0 && len(img.Locals[0]) != length {
					t.Fatalf("step %d: test bug: first image row must carry the model's length", step)
				}
				if err := r.Load(img); err != nil {
					t.Fatal(err)
				}
				released = map[*int32]bool{}
			}
			checkAgainstModel(t, step, &r, model)
		}
		if adoptions == 0 || deferred == 0 {
			t.Fatalf("seed %d: %d batches adopted, %d qualifying ones refused for waiting released rows: both paths must run", seed, adoptions, deferred)
		}
		checkWALRecovers(t, &r, model)
	}
}

// checkWALRecovers logs r's residents to a fresh WAL as a station does — one
// ingest batch of its rows, then an evict of its first person — recovers
// them through a reopen, then snapshots r and recovers again: each time
// every row must come back as the model holds it, in int32 rows and, widened,
// in Patterns.
func checkWALRecovers(t *testing.T, r *store.Residents, model map[core.PersonID][]int32) {
	t.Helper()
	if r.Len() == 0 {
		return
	}
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{SnapshotEvery: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	first := r.Persons()[0]
	if err := w.AppendCells(store.CellBatch{Op: store.OpIngest, Persons: r.Persons(), Locals: r.Locals()}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCells(store.CellBatch{Op: store.OpEvict, Persons: []core.PersonID{first}}); err != nil {
		t.Fatal(err)
	}
	recovered := func(label string, want map[core.PersonID][]int32) {
		t.Helper()
		img, err := w.RecoverCells()
		if err != nil {
			t.Fatal(err)
		}
		var got store.Residents
		got.Adopt(img)
		checkAgainstModel(t, -1, &got, want)
		wide, err := w.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(wide.Persons, img.Persons) || !reflect.DeepEqual(wide.Locals, widen(img.Locals)) {
			t.Fatalf("%s: Pattern recovery differs from the int32 one", label)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	rest := maps.Clone(model)
	delete(rest, first)
	recovered("log", rest)
	if err := w.SnapshotCells(store.CellImage{Persons: r.Persons(), Locals: r.Locals()}); err != nil {
		t.Fatal(err)
	}
	recovered("snapshot", model)
}

// TestAdoptRowsIntoEmptyStoreKeepsSlices pins AdoptRows' contract on an
// empty store: a decoded batch's persons and locals slices become the
// store's own, not copies; later upserts (new persons among the adopted
// ones, replacements), evictions and a second adoption still match the map
// model; and a WAL holding the same batches recovers the same image, both
// replaying its log through Fold.ApplyDecoded and from a fold's snapshot.
func TestAdoptRowsIntoEmptyStoreKeepsSlices(t *testing.T) {
	const length = 4
	rng := rand.New(rand.NewSource(7))
	row := func() []int32 {
		p := make([]int32, length)
		drawCells(rng, p)
		return p
	}
	decoded := func(persons ...core.PersonID) store.CellBatch {
		locals := make([][]int32, len(persons))
		for i := range locals {
			locals[i] = row()
		}
		payload, err := wire.EncodeRows(nil, persons, locals, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		persons, locals, err = wire.DecodeRows[[]int32](payload)
		if err != nil {
			t.Fatal(err)
		}
		return store.CellBatch{Op: store.OpIngest, Persons: persons, Locals: locals}
	}

	var r store.Residents
	model := map[core.PersonID][]int32{}
	var history []store.CellBatch
	apply := func(step int, b store.CellBatch) {
		switch b.Op {
		case store.OpIngest:
			for i, p := range b.Persons {
				model[p] = slices.Clone(b.Locals[i])
			}
		case store.OpEvict:
			for _, p := range b.Persons {
				delete(model, p)
			}
		}
		// The log gets its own copy of what the store applied, since the
		// adopted slices are the store's now.
		c := store.CellBatch{Op: b.Op, Persons: slices.Clone(b.Persons)}
		for _, l := range b.Locals {
			c.Locals = append(c.Locals, slices.Clone(l))
		}
		history = append(history, c)
		checkAgainstModel(t, step, &r, model)
	}

	first := decoded(10, 20, 30, 40, 50)
	if !r.AdoptRows(first.Persons, first.Locals) {
		t.Fatal("empty store refused a qualifying decoded batch")
	}
	if &r.Persons()[0] != &first.Persons[0] || &r.Locals()[0] != &first.Locals[0] {
		t.Fatal("AdoptRows into an empty store copied the batch's slices")
	}
	apply(0, first)

	upserts := store.CellBatch{Op: store.OpIngest, Persons: []core.PersonID{25, 30, 5}, Locals: [][]int32{row(), row(), row()}}
	for i, p := range upserts.Persons {
		if !r.Upsert(p, upserts.Locals[i]) {
			t.Fatalf("upsert of %d refused", p)
		}
	}
	apply(1, upserts)

	for _, p := range []core.PersonID{20, 50} {
		if !r.Evict(p) {
			t.Fatalf("evict of resident %d missed", p)
		}
	}
	apply(2, evict(20, 50))

	// Rows released by the evictions are reused before a batch is adopted.
	refill := store.CellBatch{Op: store.OpIngest, Persons: []core.PersonID{60, 70}, Locals: [][]int32{row(), row()}}
	for i, p := range refill.Persons {
		if !r.Upsert(p, refill.Locals[i]) {
			t.Fatalf("upsert of %d refused", p)
		}
	}
	apply(3, refill)
	second := decoded(80, 90)
	if !r.AdoptRows(second.Persons, second.Locals) {
		t.Fatal("a qualifying batch above every resident was refused")
	}
	apply(4, second)

	// Replayed from the log alone: the first record lands in an empty fold,
	// which adopts it through ApplyDecoded.
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{SnapshotEvery: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range history {
		if err := w.AppendCells(b); err != nil {
			t.Fatal(err)
		}
	}
	img, err := w.RecoverCells()
	if err != nil {
		t.Fatal(err)
	}
	var replayed store.Residents
	replayed.Adopt(img)
	checkAgainstModel(t, len(history), &replayed, model)

	// Folded: the snapshot of the store's own slices recovers the same image.
	if err := w.SnapshotCells(store.CellImage{Persons: r.Persons(), Locals: r.Locals()}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	img, err = w2.RecoverCells()
	if err != nil {
		t.Fatal(err)
	}
	var folded store.Residents
	folded.Adopt(img)
	checkAgainstModel(t, len(history)+1, &folded, model)
}

// TestResidentsHeapBytesPin pins what a bulk-loaded station store holds: at
// most 1.15 × n × (4·L + 28) bytes for n residents of length L — int32
// cells, a row header and a person each — whether the rows arrive as one
// decoded ingest frame the store adopts or through Load. Bytes keeps the
// paper's 8 bytes per value, whatever the store holds.
func TestResidentsHeapBytesPin(t *testing.T) {
	const n = 10_000
	rng := rand.New(rand.NewSource(2))
	for _, length := range []int{1, 24, 168} {
		var persons []core.PersonID
		var locals []pattern.Pattern
		for i := 0; i < n; i++ {
			row := make(pattern.Pattern, length)
			for g := range row {
				row[g] = rng.Int63n(1_000_000) + 1
			}
			persons = append(persons, core.PersonID(3*i+1))
			locals = append(locals, row)
		}
		payload, err := wire.EncodeRows(nil, persons, locals, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		decodedPersons, decodedLocals, err := wire.DecodeRows[[]int32](payload)
		if err != nil {
			t.Fatal(err)
		}
		var adopted, loaded store.Residents
		if !adopted.AdoptRows(decodedPersons, decodedLocals) {
			t.Fatal("an empty store refused a decoded frame")
		}
		if err := loaded.Load(store.CellImage{Persons: persons, Locals: cells(locals)}); err != nil {
			t.Fatal(err)
		}
		limit := uint64(1.15 * float64(n*(4*length+28)))
		for name, r := range map[string]*store.Residents{"adopted": &adopted, "loaded": &loaded} {
			if got := r.HeapBytes(); got > limit {
				t.Errorf("length %d, %s: HeapBytes %d over %d", length, name, got, limit)
			}
			if got, want := r.Bytes(), uint64(8*n*length); got != want {
				t.Errorf("length %d, %s: Bytes %d, want the paper's %d", length, name, got, want)
			}
		}
		t.Logf("length %d: %d residents hold %d B adopted, %d B loaded (limit %d)", length, n, adopted.HeapBytes(), loaded.HeapBytes(), limit)
	}
}

// TestResidentsLoadRejectsRaggedImage: persons and locals must be parallel.
func TestResidentsLoadRejectsRaggedImage(t *testing.T) {
	var r store.Residents
	if err := r.Load(store.CellImage{Persons: []core.PersonID{1, 2}, Locals: [][]int32{{1}}}); err == nil {
		t.Fatal("image with 2 persons and 1 local loaded")
	}
}

// TestMemoryRecoverIsIndependent: the image a backend hands out is a deep
// copy — rows are overwritten in place now, so a shared row would change
// under whoever holds the image.
func TestMemoryRecoverIsIndependent(t *testing.T) {
	m := store.NewMemory()
	if err := m.AppendCells(ingest([]core.PersonID{4, 8}, []pattern.Pattern{pat(1, 2, 3), pat(4, 5, 6)})); err != nil {
		t.Fatal(err)
	}
	img, err := m.RecoverCells()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendCells(ingest([]core.PersonID{4, 6}, []pattern.Pattern{pat(7, 7, 7), pat(9, 9, 9)})); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendCells(evict(8)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img.Persons, []core.PersonID{4, 8}) || !reflect.DeepEqual(widen(img.Locals), []pattern.Pattern{pat(1, 2, 3), pat(4, 5, 6)}) {
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
	params := core.Params{Bits: 1 << 16, Hashes: 3, Samples: 8, Epsilon: 1, Seed: 7}
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
	rows := cells(fx.rows)
	junk := make([]int32, fx.length)
	for i := range junk {
		junk[i] = 1
	}
	for _, i := range rng.Perm(len(fx.persons)) {
		first := rows[i]
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
			r.Upsert(fx.persons[i], rows[i])
		}
	}
	if r.Len() != len(fx.persons) {
		tb.Fatalf("churned store holds %d rows, want %d", r.Len(), len(fx.persons))
	}
	return &r
}

// TestWalkersSeeStoreViewsAsPlainSlices: core.MatchResidents and index.Build
// take the store's int32 Persons/Locals views; what they compute over them
// is byte-equal to what they compute over the same rows as plain Patterns.
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
		// A bounded walk over the store's Range is the full walk filtered to
		// [from, to), to == 0 open: what a station's prefix and tail rounds
		// report. Persons are the odd numbers 1..2n−1.
		full, err := core.MatchResidents(fx.filter, r.Persons(), r.Locals(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range [][2]core.PersonID{{0, 0}, {0, 400}, {400, 0}, {401, 1200}, {2, 3}, {1, 2}, {0, 1}, {5000, 0}, {3, 5000}} {
			persons, locals := r.Range(b[0], b[1])
			got, err := core.MatchResidents(fx.filter, persons, locals, 3)
			if err != nil {
				t.Fatal(err)
			}
			var want []core.Report
			for _, rep := range full {
				if rep.Person >= b[0] && (b[1] == 0 || rep.Person < b[1]) {
					want = append(want, rep)
				}
			}
			wantBytes := wire.EncodeBatchReply(wire.BatchReply{Station: 1, Queries: 4, Reports: want}).Payload
			gotBytes := wire.EncodeBatchReply(wire.BatchReply{Station: 1, Queries: 4, Reports: got}).Payload
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("dense=%v [%d, %d): bounded walk reports %d, the filtered full walk %d", dense, b[0], b[1], len(got), len(want))
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
		if !reflect.DeepEqual(gotSum, wantSum) {
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
		rows := cells(fx.rows)
		scattered := make([][]int32, len(rows))
		for _, i := range rand.New(rand.NewSource(3)).Perm(len(rows)) {
			scattered[i] = slices.Clone(rows[i])
		}
		for _, layout := range []struct {
			name   string
			locals [][]int32
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

// BenchmarkMatchResidentsPrefix is a station's share of a capped search on a
// dense 300-resident store (city_fanout holds about 300 residents per
// station): the prefix round walks the Range below 15 % of the person span,
// a full-range round all of it.
func BenchmarkMatchResidentsPrefix(b *testing.B) {
	fx := newWalkFixture(b, true, 300)
	r := fx.churned(b)
	span := fx.persons[len(fx.persons)-1] + 1
	for _, part := range []struct {
		name string
		to   core.PersonID
	}{{"prefix15", span * 15 / 100}, {"full", 0}} {
		persons, locals := r.Range(0, part.to)
		b.Run(part.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MatchResidents(fx.filter, persons, locals, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResidentsUpsert measures the store's two write paths on a
// 25 000-resident station: replacing residents in place (the steady state of
// a streamed workload) and a sorted bulk load into an empty store.
func BenchmarkResidentsUpsert(b *testing.B) {
	fx := newWalkFixture(b, false, 25_000)
	rows := cells(fx.rows)
	order := rand.New(rand.NewSource(9)).Perm(len(fx.persons))
	b.Run("replace", func(b *testing.B) {
		r := fx.churned(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := order[i%len(order)]
			r.Upsert(fx.persons[k], rows[(k+1)%len(rows)])
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r store.Residents
			for k, p := range fx.persons {
				r.Upsert(p, rows[k])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(fx.persons)), "ns/row")
	})
}
