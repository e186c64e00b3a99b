package store

import (
	"fmt"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// minChunkRows is the smallest cell chunk Residents allocates, in rows. A new
// chunk holds max(minChunkRows, residents/8) rows, so the unused tail of the
// newest chunk — the only slack the store carries besides evicted rows kept
// for reuse — stays within 12.5 % of a store past 1 024 residents and within
// 127 rows of a smaller one.
const minChunkRows = 128

// Residents is a station's resident store and the only holder of resident
// patterns: persons ascending, every row the same length, cells in chunks the
// store allocates itself. Upsert copies the caller's row in — over the old
// cells when the person is already resident — so a decoded wire or WAL arena
// dies with its message, a replaced row leaves nothing behind, and rows
// loaded together sit contiguously in memory.
//
// The copy-in rule has a flip side: the views Locals returns alias cells the
// next Upsert may overwrite, so they are good for the caller's turn only —
// walk them, encode them, but copy (Image) anything that must outlive the
// next mutation. Like the station it serves, a Residents is single-owner and
// does no locking.
type Residents struct {
	persons []core.PersonID
	locals  []pattern.Pattern // locals[i] is persons[i]'s row, a capped view into a chunk
	tail    []int64           // cells of the newest chunk not yet handed out
	free    []pattern.Pattern // rows released by Evict, handed out before the tail
}

// Len returns the resident count.
func (r *Residents) Len() int { return len(r.persons) }

// Length returns the residents' shared row length, 0 while the store is empty.
func (r *Residents) Length() int {
	if len(r.locals) == 0 {
		return 0
	}
	return len(r.locals[0])
}

// Bytes returns the bytes of raw pattern cells held (8 per cell) — the
// baseline storage the paper charges every strategy.
func (r *Residents) Bytes() uint64 {
	return 8 * uint64(len(r.locals)) * uint64(r.Length())
}

// Persons returns the resident person IDs, ascending. The slice is the
// store's own: read it, do not keep it across a mutation.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (r *Residents) Persons() []core.PersonID { return r.persons }

// Locals returns the rows parallel to Persons, under the same rule — and the
// rows themselves are overwritten in place by a later Upsert of their person.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (r *Residents) Locals() []pattern.Pattern { return r.locals }

// Find returns the index of person p in Persons and whether p is resident;
// for an absent p the index is where p would be inserted.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (r *Residents) Find(p core.PersonID) (int, bool) {
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

// Upsert copies local in as person p's row — in place when p is already
// resident — and reports whether it was applied. Two kinds of row are not:
// an all-zero one (no measurable activity means no local pattern; it would
// otherwise probe the filters at accumulated value zero) and one whose length
// differs from the residents' (a pattern from another time window can never
// qualify, and a store of mixed lengths cannot be digested). An empty store
// takes its length from the first row applied.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (r *Residents) Upsert(p core.PersonID, local pattern.Pattern) bool {
	if local.Sum() == 0 || (len(r.locals) > 0 && len(local) != len(r.locals[0])) {
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
func (r *Residents) insert(i int, p core.PersonID, local pattern.Pattern) {
	var row pattern.Pattern
	if n := len(r.free); n > 0 {
		row, r.free[n-1] = r.free[n-1], nil
		r.free = r.free[:n-1]
	} else {
		if len(r.tail) < len(local) {
			r.tail = make([]int64, max(minChunkRows, len(r.persons)/8)*len(local))
		}
		row, r.tail = r.tail[:len(local):len(local)], r.tail[len(local):]
	}
	copy(row, local)
	r.persons = append(r.persons, 0)
	copy(r.persons[i+1:], r.persons[i:])
	r.persons[i] = p
	r.locals = append(r.locals, nil)
	copy(r.locals[i+1:], r.locals[i:])
	r.locals[i] = row
}

// Evict removes person p, keeping the row for the next new resident, and
// reports whether p was resident. An emptied store lets its chunks go and
// accepts a new row length.
func (r *Residents) Evict(p core.PersonID) bool {
	i, resident := r.Find(p)
	if !resident {
		return false
	}
	if len(r.persons) == 1 {
		*r = Residents{}
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
func (r *Residents) Load(img Image) error {
	n := len(img.Persons)
	if n != len(img.Locals) {
		return fmt.Errorf("store: image with %d persons but %d locals", n, len(img.Locals))
	}
	*r = Residents{persons: make([]core.PersonID, 0, n), locals: make([]pattern.Pattern, 0, n)}
	if n > 0 {
		r.tail = make([]int64, n*len(img.Locals[0]))
	}
	for i, p := range img.Persons {
		r.Upsert(p, img.Locals[i])
	}
	return nil
}

// Image returns a deep copy of the residents (no digest — the store tracks
// residents only): nothing done to the store later shows through it.
func (r *Residents) Image() Image {
	var c Residents
	_ = c.Load(Image{Persons: r.persons, Locals: r.locals}) // parallel by construction
	return c.Take()
}

// Take moves the residents out, leaving the store empty. Single-owner
// recovery paths use it to hand the result off without Image's copy.
func (r *Residents) Take() Image {
	img := Image{Persons: r.persons, Locals: r.locals}
	*r = Residents{}
	return img
}

// Adopt replaces the store's state with an image another Residents produced
// (Take or Image) and the caller gives up — its rows become the store's and
// will be overwritten in place. Nothing is re-validated or copied; an image
// from anywhere else, or one somebody still reads, must go through Load.
func (r *Residents) Adopt(img Image) {
	*r = Residents{persons: img.Persons, locals: img.Locals}
}
