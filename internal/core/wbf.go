package core

import (
	"fmt"
	"sort"

	"dimatch/internal/bitset"
	"dimatch/internal/hash"
	"dimatch/internal/pattern"
)

// WeightID is a pointer into a Filter's weight table. The paper's WBF
// attaches "a pointer pointing to the weight of corresponding hashed values"
// to each set bit; we realize the pointer as a table index so weights ship
// once, not per bit.
type WeightID uint32

// WeightEntry is one row of the weight table: the exact weight of one
// combination of one query's local patterns, stored as an integer fraction
// Numerator/Denominator, never a float. The denominator is the
// query's global value sum, so the full combination has weight exactly 1 and
// weights of disjoint combinations add.
type WeightEntry struct {
	Query       QueryID
	Mask        pattern.Subset
	Numerator   int64
	Denominator int64
}

// Value returns the weight as a float in (0, 1], for reporting only — the
// matching pipeline compares integer numerators.
func (w WeightEntry) Value() float64 {
	if w.Denominator == 0 {
		return 0
	}
	return float64(w.Numerator) / float64(w.Denominator)
}

// Filter is the Weighted Bloom Filter: a bit array in which every set bit
// carries the list of weight pointers of the values that set it, plus the
// weight table those pointers index.
type Filter struct {
	params    Params
	length    int   // time-series length the filter was built for
	sampleIdx []int // deterministic sample positions, shared with stations
	bits      *bitset.Set
	slots     map[uint64][]WeightID // bit index -> sorted unique weight IDs
	weights   []WeightEntry
	family    hash.Family
	inserted  uint64 // total value insertions (with band expansion)
	distinct  uint64 // distinct hashed keys (what the FP model sees)
	keys      keyer
}

// keyer maps (sample slot, accumulated value) pairs to hashed elements. It
// is shared by the WBF and the BF baseline so both hash identically.
type keyer struct {
	salted bool
	salts  []uint64
}

func newKeyer(p Params, slots int) keyer {
	k := keyer{salted: p.PositionSalted}
	if !k.salted {
		return k
	}
	k.salts = make([]uint64, slots)
	for i := range k.salts {
		k.salts[i] = hash.Mix64(p.Seed ^ (uint64(i+1) * 0x8f3c9d1b5a7e42d1))
	}
	return k
}

// key returns the hashed element for a value observed at a sample slot.
// Without position salting (the paper's scheme) the value is hashed as-is:
// the time information lives purely in the accumulation transform. With
// salting, each sample slot gets its own key space.
func (k keyer) key(slot int, value int64) int64 {
	if !k.salted {
		return value
	}
	return int64(hash.Mix64(uint64(value)) ^ k.salts[slot])
}

// newFilter allocates an empty filter; used by the Encoder.
func newFilter(p Params, length int) (*Filter, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if length <= 0 {
		return nil, fmt.Errorf("core: filter pattern length %d, want > 0", length)
	}
	idx, err := pattern.SampleIndexes(length, p.Samples)
	if err != nil {
		return nil, err
	}
	return &Filter{
		params:    p,
		length:    length,
		sampleIdx: idx,
		bits:      bitset.New(p.Bits),
		slots:     make(map[uint64][]WeightID),
		family:    hash.NewFamily(p.Seed, p.Hashes, p.Bits),
		keys:      newKeyer(p, len(idx)),
	}, nil
}

// key maps a (sample slot, accumulated value) pair to the hashed element.
func (f *Filter) key(slot int, value int64) int64 {
	return f.keys.key(slot, value)
}

// addWeight appends a weight entry and returns its pointer.
func (f *Filter) addWeight(e WeightEntry) WeightID {
	f.weights = append(f.weights, e)
	return WeightID(len(f.weights) - 1)
}

// insert hashes one value into the filter, attaching the weight pointer to
// every bit it sets or finds set.
func (f *Filter) insert(slot int, value int64, id WeightID) {
	var buf [16]uint64
	for _, idx := range f.family.Indexes(f.key(slot, value), buf[:0]) {
		f.bits.Set(idx)
		list := f.slots[idx]
		// Weight IDs are assigned in increasing order during encoding, so an
		// append keeps the list sorted; skip the duplicate produced when a
		// band inserts the same bit twice for one combination.
		if n := len(list); n == 0 || list[n-1] != id {
			f.slots[idx] = append(list, id)
		}
	}
	f.inserted++
}

// probe looks one value up. It returns (nil, false) if any bit is unset —
// the value is definitely absent — and otherwise the sorted intersection of
// the weight-pointer lists across the k bits: the weights every probed bit
// agrees on.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (f *Filter) probe(slot int, value int64, scratch []WeightID) ([]WeightID, bool) {
	var buf [16]uint64
	indexes := f.family.Indexes(f.key(slot, value), buf[:0])
	for _, idx := range indexes {
		if !f.bits.Test(idx) {
			return nil, false
		}
	}
	out := scratch[:0]
	out = append(out, f.slots[indexes[0]]...)
	for _, idx := range indexes[1:] {
		out = intersectSorted(out, f.slots[idx])
		if len(out) == 0 {
			// All bits set but no common weight: a hash-collision artifact;
			// the WBF rejects it where a plain BF would accept.
			return nil, false
		}
	}
	return out, true
}

// intersectSorted intersects two ascending WeightID slices in place of a,
// returning the (possibly shortened) result.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func intersectSorted(a, b []WeightID) []WeightID {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Params returns the filter's parameters.
func (f *Filter) Params() Params { return f.params }

// Length returns the time-series length the filter encodes.
func (f *Filter) Length() int { return f.length }

// SampleIndexes returns the sample positions stations must probe. Callers
// must not mutate the returned slice.
func (f *Filter) SampleIndexes() []int { return f.sampleIdx }

// Weights returns the weight table. Callers must not mutate it.
func (f *Filter) Weights() []WeightEntry { return f.weights }

// Weight returns the entry for id, or an error for a dangling pointer.
func (f *Filter) Weight(id WeightID) (WeightEntry, error) {
	if int(id) >= len(f.weights) {
		return WeightEntry{}, fmt.Errorf("core: weight id %d out of range [0,%d)", id, len(f.weights))
	}
	return f.weights[id], nil
}

// Inserted returns the number of value insertions performed, including band
// expansion (the paper's n = a·b scaled by the ε bands).
func (f *Filter) Inserted() uint64 { return f.inserted }

// DistinctKeys returns the number of distinct hashed keys — the n of the
// false-positive model (overlapping ε bands and repeated combination values
// insert the same key many times but set bits once).
func (f *Filter) DistinctKeys() uint64 {
	if f.distinct == 0 {
		return f.inserted // reconstructed filters fall back to the upper bound
	}
	return f.distinct
}

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 { return f.bits.FillRatio() }

// Words exposes the bit array for serialization.
func (f *Filter) Words() []uint64 { return f.bits.Words() }

// Slots returns the bit->weight-pointer map in a deterministic, sorted form
// for serialization: parallel slices of bit indexes (ascending) and their
// pointer lists.
func (f *Filter) Slots() (bitIdx []uint64, ids [][]WeightID) {
	bitIdx = make([]uint64, 0, len(f.slots))
	for idx := range f.slots {
		bitIdx = append(bitIdx, idx)
	}
	sort.Slice(bitIdx, func(i, j int) bool { return bitIdx[i] < bitIdx[j] })
	ids = make([][]WeightID, len(bitIdx))
	for i, idx := range bitIdx {
		ids[i] = append([]WeightID(nil), f.slots[idx]...)
	}
	return bitIdx, ids
}

// SizeBytes returns the approximate in-memory footprint: bit array, slot
// lists (4 bytes per pointer + 12 bytes per occupied bit for the index and
// list header) and weight table rows (16 bytes of payload each). Used by the
// storage- and communication-cost experiments.
func (f *Filter) SizeBytes() uint64 {
	size := f.bits.SizeBytes()
	for _, list := range f.slots {
		size += 12 + 4*uint64(len(list))
	}
	size += 16 * uint64(len(f.weights))
	return size
}

// FromParts reconstructs a Filter from serialized state, validating that
// slot lists are sorted, unique, in range and sit on set bits.
func FromParts(p Params, length int, words []uint64, bitIdx []uint64, ids [][]WeightID, weights []WeightEntry, inserted uint64) (*Filter, error) {
	f, err := newFilter(p, length)
	if err != nil {
		return nil, err
	}
	bits, err := bitset.FromWords(words, p.Bits)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	f.bits = bits
	if len(bitIdx) != len(ids) {
		return nil, fmt.Errorf("core: %d slot indexes but %d pointer lists", len(bitIdx), len(ids))
	}
	if set := bits.Count(); set != uint64(len(bitIdx)) {
		return nil, fmt.Errorf("core: %d set bits but %d slot lists", set, len(bitIdx))
	}
	f.weights = append([]WeightEntry(nil), weights...)
	f.inserted = inserted
	for i, idx := range bitIdx {
		if idx >= p.Bits {
			return nil, fmt.Errorf("core: slot index %d out of range", idx)
		}
		if !bits.Test(idx) {
			return nil, fmt.Errorf("core: slot list on unset bit %d", idx)
		}
		list := ids[i]
		if len(list) == 0 {
			return nil, fmt.Errorf("core: empty pointer list at bit %d", idx)
		}
		for j, id := range list {
			if int(id) >= len(weights) {
				return nil, fmt.Errorf("core: dangling weight pointer %d at bit %d", id, idx)
			}
			if j > 0 && list[j-1] >= id {
				return nil, fmt.Errorf("core: unsorted pointer list at bit %d", idx)
			}
		}
		f.slots[idx] = append([]WeightID(nil), list...)
	}
	return f, nil
}
