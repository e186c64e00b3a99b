package core

import (
	"encoding/binary"
	"fmt"
	"math"
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
// builds it once and it is read-only afterwards. It holds only its set bits:
// their positions ascending, and beside each a dictionary code, because set
// bits share few distinct pointer lists and each list lives once in a
// dictionary. A bit's rank is its index in the positions, found through a
// directory of the positions by pos >> shift. Every array is sized by the set
// bits, never by Bits. The wire ships exactly these arrays (docs/WIRE.md).
type Filter struct {
	params    Params
	length    int        // time-series length the filter was built for
	sampleIdx []int      // deterministic sample positions, shared with stations
	pos       []uint32   // the set bits, strictly ascending
	dir       []uint32   // dir[b]: how many set bits lie below b << shift
	shift     uint       // RiceParam(Bits, set bits)
	codes     []uint32   // per set bit, in bit order: its list's dictionary index
	offs      []uint32   // dictionary list d is ids[offs[d]:offs[d+1]]
	ids       []WeightID // arena of the distinct lists, each strictly ascending
	weights   []WeightEntry
	family    hash.Family
	keys      keyer
}

// RiceParam returns the Rice parameter r for set positions among m bits:
// ⌊log₂(ln 2 · m / set)⌋, at least 0, with set taken as 1 when 0. Gaps
// between set random positions of m bits are near-geometric with mean
// m/set, and this r is the Golomb-Rice optimum for such gaps. The wire codes
// the gaps with it and the filter's directory buckets positions by it; both
// sides derive it from Bits and the set count, so it is never sent. A bucket
// of 2^r bits then holds under one set bit on average, and the directory
// under 2.9 entries per set bit.
func RiceParam(m, set uint64) uint {
	x := math.Ln2 * float64(m) / float64(max(set, 1))
	return uint(max(bits.Len64(uint64(x)), 1) - 1)
}

// keyer maps (sample slot, accumulated value) pairs to hashed elements. It
// is shared by the WBF and the BF baseline so both hash identically.
type keyer struct {
	salted bool
	seed   uint64 // the salts' seed, when salted
	salts  []uint64
}

func newKeyer(p Params, slots int) keyer {
	k := keyer{salted: p.PositionSalted}
	if !k.salted {
		return k
	}
	k.seed, k.salts = p.Seed, make([]uint64, slots)
	for i := range k.salts {
		k.salts[i] = hash.PositionSalt(p.Seed, i)
	}
	return k
}

// serves reports whether k is the keyer newKeyer(p, slots) would build.
func (k keyer) serves(p Params, slots int) bool {
	return k.salted == p.PositionSalted && (!k.salted || k.seed == p.Seed && len(k.salts) == slots)
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

// newFilter returns a filter with its pipeline state set and no bits yet;
// seal or FromParts fills in the arrays.
func newFilter(p Params, length int) (*Filter, error) {
	f := new(Filter)
	if err := f.reset(p, length); err != nil {
		return nil, err
	}
	return f, nil
}

// reset sets f's pipeline state for params p and the given length. The
// sample positions depend on the length and the sample count alone, and the
// keyer on the seed, the salting and the slot count, so a filter refilled
// for a repeat of either keeps what it already holds. The filter keeps ε as
// 0: its bits already hold the bands the encoder hashed, and no probe reads
// it.
func (f *Filter) reset(p Params, length int) error {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return err
	}
	p.Epsilon = 0
	if length <= 0 {
		return fmt.Errorf("core: filter pattern length %d, want > 0", length)
	}
	if f.sampleIdx == nil || length != f.length || p.Samples != f.params.Samples {
		idx, err := pattern.SampleIndexes(length, p.Samples)
		if err != nil {
			return err
		}
		f.sampleIdx = idx
	}
	if !f.keys.serves(p, len(f.sampleIdx)) {
		f.keys = newKeyer(p, len(f.sampleIdx))
	}
	f.params, f.length = p, length
	f.family = hash.NewFamily(p.Seed, p.Hashes, p.Bits)
	return nil
}

// seal builds the arrays from the encoder's (bit<<32 | weight) pairs. Sorted,
// the pairs gather each bit's pointers into one ascending run, repeats (a
// band hitting one bit twice for one combination) adjacent. Each distinct run
// becomes a dictionary list in first-use order by ascending bit: the same
// insertions always seal to the same arrays.
func (f *Filter) seal(pairs []uint64) {
	slices.Sort(pairs)
	f.offs = []uint32{0}
	dict := make(map[string]uint32)
	var run []WeightID
	var key []byte
	for i := 0; i < len(pairs); {
		bit := pairs[i] >> 32
		run, key = run[:0], key[:0]
		for ; i < len(pairs) && pairs[i]>>32 == bit; i++ {
			if id := WeightID(uint32(pairs[i])); len(run) == 0 || run[len(run)-1] != id {
				run = append(run, id)
				key = binary.LittleEndian.AppendUint32(key, uint32(id))
			}
		}
		code, ok := dict[string(key)]
		if !ok {
			code = uint32(len(dict))
			dict[string(key)] = code
			f.ids = append(f.ids, run...)
			f.offs = append(f.offs, uint32(len(f.ids)))
		}
		f.pos = append(f.pos, uint32(bit))
		f.codes = append(f.codes, code)
	}
	f.buildDir()
}

// buildDir buckets the positions by pos >> shift: bucket b's set bits are
// pos[dir[b]:dir[b+1]]. The positions must ascend below Bits.
func (f *Filter) buildDir() {
	f.shift = RiceParam(f.params.Bits, uint64(len(f.pos)))
	f.dir = resize(f.dir, int((f.params.Bits-1)>>f.shift+2))
	clear(f.dir)
	for _, p := range f.pos {
		f.dir[p>>f.shift+1]++
	}
	for b := 1; b < len(f.dir); b++ {
		f.dir[b] += f.dir[b-1]
	}
}

// list returns the pointer list hanging off bit idx, or false if the bit is
// unset. A bucket holds under one set bit on average, so the scan is short.
func (f *Filter) list(idx uint64) ([]WeightID, bool) {
	b := idx >> f.shift
	for i, end := f.dir[b], f.dir[b+1]; i < end && uint64(f.pos[i]) <= idx; i++ {
		if uint64(f.pos[i]) == idx {
			code := f.codes[i]
			return f.ids[f.offs[code]:f.offs[code+1]], true
		}
	}
	return nil, false
}

// probe looks one value up. It returns (nil, false) if any bit is unset —
// the value is definitely absent — and otherwise the sorted intersection of
// the weight-pointer lists across the k bits: the weights every probed bit
// agrees on.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (f *Filter) probe(slot int, value int64, scratch []WeightID) ([]WeightID, bool) {
	var buf [16]uint64
	out := scratch[:0]
	for j, idx := range f.family.Indexes(f.keys.key(slot, value), buf[:0]) {
		list, ok := f.list(idx)
		switch {
		case !ok:
			return nil, false
		case j == 0:
			out = append(out, list...)
		default:
			out = intersectSorted(out, list)
		}
		if len(out) == 0 {
			// All bits so far set but no common weight: a hash-collision
			// artifact; the WBF rejects it where a plain BF would accept.
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

// Params returns the filter's parameters, with Epsilon 0 (reset).
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

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 { return float64(len(f.codes)) / float64(f.params.Bits) }

// Positions and Lists expose the sealed arrays for serialization: the set
// bits, ascending; one dictionary index per set bit, in the same order; and
// the distinct pointer lists, list d being ids[offs[d]:offs[d+1]]. Callers
// must not mutate them.
func (f *Filter) Positions() []uint32 { return f.pos }

func (f *Filter) Lists() (codes, offs []uint32, ids []WeightID) { return f.codes, f.offs, f.ids }

// SizeBytes returns the filter's size under the paper's cost model, which the
// storage- and communication-cost experiments report: the m-bit array, per
// occupied bit 12 bytes (index and list header) plus 4 per pointer it
// carries, and 16 bytes per weight-table row. It models a WBF with a list per
// bit; it is not the Go heap or the wire size of this sparse form.
func (f *Filter) SizeBytes() uint64 {
	size := (f.params.Bits+63)/64*8 + 12*uint64(len(f.codes)) + 16*uint64(len(f.weights))
	for _, code := range f.codes {
		size += 4 * uint64(f.offs[code+1]-f.offs[code])
	}
	return size
}

// HeapBytes returns the capacity of f's arrays in bytes, 0 for a nil f: what
// a filter refilled through SetParts keeps from one frame to the next.
func (f *Filter) HeapBytes() int {
	if f == nil {
		return 0
	}
	const entry = 24 // a WeightEntry's size
	return 4*(cap(f.pos)+cap(f.dir)+cap(f.codes)+cap(f.offs)+cap(f.ids)) +
		entry*cap(f.weights) + 8*(cap(f.sampleIdx)+cap(f.keys.salts))
}

// FromParts reconstructs a Filter from its serialized arrays, which it keeps
// (no copy); SetParts validates them.
func FromParts(p Params, length int, positions []uint32, weights []WeightEntry, offs []uint32, ids []WeightID, codes []uint32) (*Filter, error) {
	f := new(Filter)
	if err := f.SetParts(p, length, positions, weights, offs, ids, codes); err != nil {
		return nil, err
	}
	return f, nil
}

// SetParts makes f the filter of the given serialized arrays, which it keeps
// (no copy), validating all that probing relies on: the positions ascend
// strictly below Bits, every set bit has a code naming a list, and every list
// is non-empty, strictly ascending and within the weight table. It keeps f's
// sample positions, keyer and directory where the new filter can use them
// (reset), so a decoder refilling one filter per frame — handing back the
// arrays Positions, Lists and Weights returned, overwritten — allocates
// nothing once they have grown. After an error f must not be probed until a
// SetParts succeeds.
func (f *Filter) SetParts(p Params, length int, positions []uint32, weights []WeightEntry, offs []uint32, ids []WeightID, codes []uint32) error {
	if err := f.reset(p, length); err != nil {
		return err
	}
	if len(positions) != len(codes) {
		return fmt.Errorf("core: %d set bits but %d list codes", len(positions), len(codes))
	}
	for i, pos := range positions {
		if i > 0 && positions[i-1] >= pos {
			return fmt.Errorf("core: set bit %d does not ascend past %d", pos, positions[i-1])
		}
	}
	if n := len(positions); n > 0 && uint64(positions[n-1]) >= p.Bits {
		return fmt.Errorf("core: bits set beyond length %d", p.Bits)
	}
	f.pos, f.weights, f.offs, f.ids, f.codes = positions, weights, offs, ids, codes
	if len(offs) == 0 || offs[0] != 0 || int(offs[len(offs)-1]) != len(ids) {
		return fmt.Errorf("core: dictionary offsets do not span its %d pointers", len(ids))
	}
	for d := 0; d+1 < len(offs); d++ {
		if offs[d] >= offs[d+1] || int(offs[d+1]) > len(ids) {
			return fmt.Errorf("core: pointer list %d is empty or overruns the dictionary", d)
		}
		list := ids[offs[d]:offs[d+1]]
		for j, id := range list {
			if int(id) >= len(weights) {
				return fmt.Errorf("core: dangling weight pointer %d in list %d", id, d)
			}
			if j > 0 && list[j-1] >= id {
				return fmt.Errorf("core: unsorted pointer list %d", d)
			}
		}
	}
	for _, code := range codes {
		if int(code) >= len(offs)-1 {
			return fmt.Errorf("core: list code %d but %d dictionary lists", code, len(offs)-1)
		}
	}
	f.buildDir() // sized by the set bits: a forged Bits cannot inflate it
	return nil
}

// resize returns s at length n, in s's own array when it has the capacity.
// The elements are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
