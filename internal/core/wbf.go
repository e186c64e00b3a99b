package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

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
//
// A filter is sealed: the encoder (or the wire decoder, through FromParts)
// builds it once and it is read-only afterwards. Set bits share few distinct
// pointer lists, so each list lives once in a dictionary and a set bit holds
// a dictionary code, found by the bit's rank among the set bits. The wire
// ships exactly these arrays (docs/WIRE.md).
type Filter struct {
	params    Params
	length    int   // time-series length the filter was built for
	sampleIdx []int // deterministic sample positions, shared with stations
	words     []uint64
	rank      []uint32   // rank[w] = set bits in words[:w]
	codes     []uint32   // per set bit, in bit order: its list's dictionary index
	offs      []uint32   // dictionary list d is ids[offs[d]:offs[d+1]]
	ids       []WeightID // arena of the distinct lists, each strictly ascending
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

// space names the key space a slot's values hash in: the slot's own when
// salted; without salting a value is one key at every slot.
func (k keyer) space(slot int) int {
	if k.salted {
		return slot
	}
	return 0
}

// newFilter returns a filter with its pipeline state set and no bits yet;
// seal or FromParts fills in the arrays.
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
		family:    hash.NewFamily(p.Seed, p.Hashes, p.Bits),
		keys:      newKeyer(p, len(idx)),
	}, nil
}

// seal builds the arrays from the encoder's (bit<<32 | weight) pairs, in
// insertion order. Setting the bits ranks them; a counting sort by rank then
// gathers each bit's pointers into one run — stable, and pointers are handed
// out ascending, so a run ascends with repeats (a band hitting one bit twice
// for one combination) adjacent. Each distinct run becomes a dictionary list
// in first-use order: the same insertions always seal to the same arrays.
func (f *Filter) seal(pairs []uint64) {
	f.words = make([]uint64, (f.params.Bits+63)/64)
	for _, p := range pairs {
		bit := p >> 32
		f.words[bit/64] |= 1 << (bit % 64)
	}
	f.codes = make([]uint32, f.buildRank())
	at := make([]uint32, len(f.codes)+1)
	for _, p := range pairs {
		at[f.slot(p>>32)+1]++
	}
	for r := range f.codes {
		at[r+1] += at[r] // where bit r's run starts
	}
	runs := make([]WeightID, len(pairs))
	for _, p := range pairs {
		r := f.slot(p >> 32)
		runs[at[r]] = WeightID(uint32(p))
		at[r]++ // where it ends, once every pair is placed
	}
	f.offs = []uint32{0}
	dict := make(map[string]uint32)
	var key []byte
	lo := uint32(0)
	for r := range f.codes {
		run := slices.Compact(runs[lo:at[r]])
		lo = at[r]
		key = key[:0]
		for _, id := range run {
			key = binary.LittleEndian.AppendUint32(key, uint32(id))
		}
		code, ok := dict[string(key)]
		if !ok {
			code = uint32(len(dict))
			dict[string(key)] = code
			f.ids = append(f.ids, run...)
			f.offs = append(f.offs, uint32(len(f.ids)))
		}
		f.codes[r] = code
	}
}

// buildRank fills the per-word popcount prefix and returns the total.
func (f *Filter) buildRank() uint64 {
	f.rank = make([]uint32, len(f.words))
	var set uint64
	for w, word := range f.words {
		f.rank[w] = uint32(set)
		set += uint64(bits.OnesCount64(word))
	}
	return set
}

// slot returns the rank of set bit idx among the set bits: the index of its
// dictionary code.
func (f *Filter) slot(idx uint64) uint32 {
	return f.rank[idx/64] + uint32(bits.OnesCount64(f.words[idx/64]&(1<<(idx%64)-1)))
}

// list returns the pointer list hanging off set bit idx.
func (f *Filter) list(idx uint64) []WeightID {
	code := f.codes[f.slot(idx)]
	return f.ids[f.offs[code]:f.offs[code+1]]
}

// probe looks one value up. It returns (nil, false) if any bit is unset —
// the value is definitely absent — and otherwise the sorted intersection of
// the weight-pointer lists across the k bits: the weights every probed bit
// agrees on.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (f *Filter) probe(slot int, value int64, scratch []WeightID) ([]WeightID, bool) {
	var buf [16]uint64
	indexes := f.family.Indexes(f.keys.key(slot, value), buf[:0])
	for _, idx := range indexes {
		if f.words[idx/64]>>(idx%64)&1 == 0 {
			return nil, false
		}
	}
	out := append(scratch[:0], f.list(indexes[0])...)
	for _, idx := range indexes[1:] {
		out = intersectSorted(out, f.list(idx))
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
func (f *Filter) FillRatio() float64 { return float64(len(f.codes)) / float64(f.params.Bits) }

// Words and Lists expose the sealed arrays for serialization: the bit array;
// one dictionary index per set bit, in bit order; and the distinct pointer
// lists, list d being ids[offs[d]:offs[d+1]]. Callers must not mutate them.
func (f *Filter) Words() []uint64 { return f.words }

func (f *Filter) Lists() (codes, offs []uint32, ids []WeightID) { return f.codes, f.offs, f.ids }

// SizeBytes returns the filter's size under the paper's cost model, which the
// storage- and communication-cost experiments report: the bit array, per
// occupied bit 12 bytes (index and list header) plus 4 per pointer it
// carries, and 16 bytes per weight-table row. It models a WBF with a list per
// bit; it is not the Go heap or the wire size of this dictionary-coded form.
func (f *Filter) SizeBytes() uint64 {
	size := 8*uint64(len(f.words)) + 12*uint64(len(f.codes)) + 16*uint64(len(f.weights))
	for _, code := range f.codes {
		size += 4 * uint64(f.offs[code+1]-f.offs[code])
	}
	return size
}

// FromParts reconstructs a Filter from its serialized arrays, which it keeps
// (no copy), validating all that probing relies on: the words hold exactly
// Bits bits with none set beyond, every set bit has a code naming a list, and
// every list is non-empty, strictly ascending and within the weight table.
func FromParts(p Params, length int, words []uint64, weights []WeightEntry, offs []uint32, ids []WeightID, codes []uint32, inserted uint64) (*Filter, error) {
	f, err := newFilter(p, length)
	if err != nil {
		return nil, err
	}
	if want := (p.Bits + 63) / 64; uint64(len(words)) != want {
		return nil, fmt.Errorf("core: %d words cannot hold exactly %d bits (want %d)", len(words), p.Bits, want)
	}
	if p.Bits%64 != 0 && words[len(words)-1]>>(p.Bits%64) != 0 {
		return nil, fmt.Errorf("core: bits set beyond length %d", p.Bits)
	}
	f.words, f.weights, f.offs, f.ids, f.codes, f.inserted = words, weights, offs, ids, codes, inserted
	if set := f.buildRank(); set != uint64(len(codes)) {
		return nil, fmt.Errorf("core: %d set bits but %d list codes", set, len(codes))
	}
	if len(offs) == 0 || offs[0] != 0 || int(offs[len(offs)-1]) != len(ids) {
		return nil, fmt.Errorf("core: dictionary offsets do not span its %d pointers", len(ids))
	}
	for d := 0; d+1 < len(offs); d++ {
		if offs[d] >= offs[d+1] || int(offs[d+1]) > len(ids) {
			return nil, fmt.Errorf("core: pointer list %d is empty or overruns the dictionary", d)
		}
		list := ids[offs[d]:offs[d+1]]
		for j, id := range list {
			if int(id) >= len(weights) {
				return nil, fmt.Errorf("core: dangling weight pointer %d in list %d", id, d)
			}
			if j > 0 && list[j-1] >= id {
				return nil, fmt.Errorf("core: unsorted pointer list %d", d)
			}
		}
	}
	for _, code := range codes {
		if int(code) >= len(offs)-1 {
			return nil, fmt.Errorf("core: list code %d but %d dictionary lists", code, len(offs)-1)
		}
	}
	return f, nil
}
