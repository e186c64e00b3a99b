package store

import (
	"fmt"
	"unsafe"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// minChunkRows is the smallest cell chunk Residents allocates, in rows. A new
// chunk holds max(minChunkRows, residents/8) rows, so the unused tail of the
// newest chunk — the only slack the store carries besides evicted rows kept
// for reuse — stays within 12.5 % of a store past 1 024 residents and within
// 127 rows of a smaller one.
const minChunkRows = 128

// ResidentsOf is a resident store of rows R: persons ascending, every row the
// same length, cells in chunks the store allocates itself or adopts whole.
// A station's is Residents, whose cells are int32; WAL recovery into
// Patterns runs the same code over int64 cells. Upsert copies the caller's
// row in — over the old cells when the person is already resident — so a
// replaced row leaves nothing behind and rows loaded together sit
// contiguously in memory.
// AdoptRows instead keeps a decoded batch that lands after every resident as
// it is, unless evicted rows wait for reuse: its exactly sized arena becomes
// one more chunk, and into an empty store its persons and locals slices
// become the store's own.
//
// The copy-in rule has a flip side: the views Locals returns alias cells the
// next Upsert may overwrite, so they are good for the caller's turn only —
// walk them, encode them, but copy (Image) anything that must outlive the
// next mutation. Like the station it serves, a store is single-owner and
// does no locking.
type ResidentsOf[R pattern.Row[C], C pattern.Cell] struct {
	persons []core.PersonID
	locals  []R // locals[i] is persons[i]'s row, a capped view into a chunk
	tail    []C // cells of the newest chunk not yet handed out
	free    []R // rows released by Evict, handed out before the tail
}

// Residents is a station's resident store and the only holder of its
// resident patterns, one int32 per cell: a length-24 resident costs
// 4·24 cells + a 24-byte row header + an 8-byte person (HeapBytes). Values
// an int32 cannot hold never reach it — the API rejects them and the
// station's row decoder refuses them — and the station never widens it to
// int64: its walk, digest, replies and WAL read these rows as they are.
type Residents = ResidentsOf[[]int32, int32]

// Len returns the resident count.
func (r *ResidentsOf[R, C]) Len() int { return len(r.persons) }

// Length returns the residents' shared row length, 0 while the store is empty.
func (r *ResidentsOf[R, C]) Length() int {
	if len(r.locals) == 0 {
		return 0
	}
	return len(r.locals[0])
}

// Bytes returns the raw pattern bytes held at the paper's 8 bytes per value —
// the baseline storage the paper charges every strategy, whatever width the
// store keeps its cells at (HeapBytes is what it holds).
func (r *ResidentsOf[R, C]) Bytes() uint64 {
	return 8 * uint64(len(r.locals)) * uint64(r.Length())
}

// HeapBytes returns the bytes the store holds: its cells (resident rows,
// rows kept for reuse and the newest chunk's tail), its row headers and its
// persons.
func (r *ResidentsOf[R, C]) HeapBytes() uint64 {
	var (
		cell C
		row  R
	)
	cells := uint64(len(r.locals)+len(r.free))*uint64(r.Length()) + uint64(cap(r.tail))
	return cells*uint64(unsafe.Sizeof(cell)) +
		uint64(unsafe.Sizeof(row))*uint64(cap(r.locals)+cap(r.free)) +
		uint64(unsafe.Sizeof(core.PersonID(0)))*uint64(cap(r.persons))
}

// Persons returns the resident person IDs, ascending. The slice is the
// store's own: read it, do not keep it across a mutation.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (r *ResidentsOf[R, C]) Persons() []core.PersonID { return r.persons }

// Locals returns the rows parallel to Persons, under the same rule — and the
// rows themselves are overwritten in place by a later Upsert of their person.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (r *ResidentsOf[R, C]) Locals() []R { return r.locals }

// Find returns the index of person p in Persons and whether p is resident;
// for an absent p the index is where p would be inserted.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (r *ResidentsOf[R, C]) Find(p core.PersonID) (int, bool) {
	lo, hi := 0, len(r.persons)
	if hi == 0 || p > r.persons[hi-1] {
		// Sorted loads (snapshot chunks, Rebalance copies, Image) append:
		// skipping the search keeps them linear in the resident count.
		return hi, false
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.persons[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, r.persons[lo] == p
}

// Range returns the Persons and Locals views cut to the residents in
// [from, to), to == 0 leaving the range open above: the slice of the store a
// bounded search round walks. The views follow Persons' and Locals' rule.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (r *ResidentsOf[R, C]) Range(from, to core.PersonID) ([]core.PersonID, []R) {
	lo, _ := r.Find(from)
	hi := len(r.persons)
	if to != 0 {
		hi, _ = r.Find(to)
	}
	hi = max(hi, lo)
	return r.persons[lo:hi], r.locals[lo:hi]
}

// Upsert copies local in as person p's row — in place when p is already
// resident — and reports whether it was applied. Two kinds of row are not:
// an all-zero one (no measurable activity means no local pattern; it would
// otherwise probe the filters at accumulated value zero) and one whose length
// differs from the residents' (a pattern from another time window can never
// qualify, and a store of mixed lengths cannot be digested). An empty store
// takes its length from the first row applied.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (r *ResidentsOf[R, C]) Upsert(p core.PersonID, local R) bool {
	if pattern.AllZero(local) || (len(r.locals) > 0 && len(local) != len(r.locals[0])) {
		return false
	}
	i, resident := r.Find(p)
	if resident {
		copy(r.locals[i], local)
	} else {
		r.insert(i, p, local)
	}
	return true
}

// insert copies local into a fresh row and opens slot i for it.
func (r *ResidentsOf[R, C]) insert(i int, p core.PersonID, local R) {
	var row R
	if n := len(r.free); n > 0 {
		row, r.free[n-1] = r.free[n-1], nil
		r.free = r.free[:n-1]
	} else {
		if len(r.tail) < len(local) {
			r.tail = make([]C, max(minChunkRows, len(r.persons)/8)*len(local))
		}
		row, r.tail = R(r.tail[:len(local):len(local)]), r.tail[len(local):]
	}
	copy(row, local)
	r.persons = append(r.persons, 0)
	copy(r.persons[i+1:], r.persons[i:])
	r.persons[i] = p
	r.locals = append(r.locals, nil)
	copy(r.locals[i+1:], r.locals[i:])
	r.locals[i] = row
}

// AdoptRows takes a batch of rows as they are, without copying, when every
// row passes Upsert's rules and the batch lands after the last resident:
// persons strictly ascending and above the last resident, no all-zero row,
// every row of the residents' length (the first row's, into an empty store)
// and capped at it. It also refuses while rows released by Evict wait for
// reuse, so those are filled before any new cells are kept. It reports
// whether it took the rows; a batch it refuses is left untouched, for the
// caller to Upsert row by row.
//
// Taken rows are the store's and are overwritten in place by later upserts
// like any other, so the caller must give them up — a freshly decoded batch
// (wire.DecodeRows sizes its cell arena exactly, so the rows hold no cells
// beyond their own), not rows anybody else reads. The caller gives up the
// persons and locals slices too: an empty store keeps them as its own, so
// a bulk load costs no second header array, and later mutations rewrite
// them.
func (r *ResidentsOf[R, C]) AdoptRows(persons []core.PersonID, locals []R) bool {
	if len(persons) != len(locals) || len(r.free) > 0 {
		return false
	}
	if len(persons) == 0 {
		return true
	}
	length, last := r.Length(), core.PersonID(0)
	if n := len(r.persons); n > 0 {
		last = r.persons[n-1]
	} else {
		length = len(locals[0])
	}
	for i, p := range persons {
		l := locals[i]
		if (i > 0 || len(r.persons) > 0) && p <= last {
			return false
		}
		if len(l) != length || cap(l) != length || pattern.AllZero(l) {
			return false
		}
		last = p
	}
	if len(r.persons) == 0 {
		r.persons, r.locals = persons, locals
		return true
	}
	r.persons = append(r.persons, persons...)
	r.locals = append(r.locals, locals...)
	return true
}

// Evict removes person p, keeping the row for the next new resident, and
// reports whether p was resident. An emptied store lets its chunks go and
// accepts a new row length.
func (r *ResidentsOf[R, C]) Evict(p core.PersonID) bool {
	i, resident := r.Find(p)
	if !resident {
		return false
	}
	if len(r.persons) == 1 {
		*r = ResidentsOf[R, C]{}
		return true
	}
	r.free = append(r.free, r.locals[i])
	r.persons = append(r.persons[:i], r.persons[i+1:]...)
	last := len(r.locals) - 1
	copy(r.locals[i:], r.locals[i+1:])
	r.locals[last] = nil
	r.locals = r.locals[:last]
	return true
}

// Load replaces the store's state with a copy of the image's residents, run
// through Upsert so a hand-built image cannot smuggle in unsorted, duplicate,
// all-zero or foreign-length entries. The rows land in one exactly sized
// chunk.
func (r *ResidentsOf[R, C]) Load(img ImageOf[R, C]) error {
	n := len(img.Persons)
	if n != len(img.Locals) {
		return fmt.Errorf("store: image with %d persons but %d locals", n, len(img.Locals))
	}
	*r = ResidentsOf[R, C]{persons: make([]core.PersonID, 0, n), locals: make([]R, 0, n)}
	if n > 0 {
		r.tail = make([]C, n*len(img.Locals[0]))
	}
	for i, p := range img.Persons {
		r.Upsert(p, img.Locals[i])
	}
	return nil
}

// Image returns a deep copy of the residents: nothing done to the store later
// shows through it.
func (r *ResidentsOf[R, C]) Image() ImageOf[R, C] {
	var c ResidentsOf[R, C]
	_ = c.Load(ImageOf[R, C]{Persons: r.persons, Locals: r.locals}) // parallel by construction
	return c.Take()
}

// Take moves the residents out, leaving the store empty. Single-owner
// recovery paths use it to hand the result off without Image's copy.
func (r *ResidentsOf[R, C]) Take() ImageOf[R, C] {
	img := ImageOf[R, C]{Persons: r.persons, Locals: r.locals}
	*r = ResidentsOf[R, C]{}
	return img
}

// Adopt replaces the store's state with an image another store produced
// (Take or Image) and the caller gives up — its rows become the store's and
// will be overwritten in place. Nothing is re-validated or copied; an image
// from anywhere else, or one somebody still reads, must go through Load.
func (r *ResidentsOf[R, C]) Adopt(img ImageOf[R, C]) {
	*r = ResidentsOf[R, C]{persons: img.Persons, locals: img.Locals}
}
