// Package bloom implements the classic Bloom filter (Bloom, 1970): the
// baseline data structure the paper's Weighted Bloom Filter extends and is
// evaluated against ("BF" in Figure 4).
//
// A Bloom filter answers approximate membership: Contains may return false
// positives but never false negatives. It cannot distinguish which inserted
// element set a bit, which is exactly the weakness the WBF's weight pointers
// repair.
package bloom

import (
	"fmt"
	"math"
	"math/bits"

	"dimatch/internal/bitset"
	"dimatch/internal/hash"
)

// Filter is a classic Bloom filter over int64 elements.
type Filter struct {
	bits   *bitset.Set
	family hash.Family
	n      uint64 // elements inserted
}

// New returns a filter of m bits using k hash functions derived from seed.
// m and k must be positive.
func New(m uint64, k int, seed uint64) (*Filter, error) {
	if m == 0 {
		return nil, fmt.Errorf("bloom: m must be positive")
	}
	if k <= 0 {
		return nil, fmt.Errorf("bloom: k must be positive, got %d", k)
	}
	return &Filter{
		bits:   bitset.New(m),
		family: hash.NewFamily(seed, k, m),
	}, nil
}

// maxWireK caps the hash count accepted from serialized state: k bounds the
// loop every Contains runs, and a BF-baseline query frame carries k verbatim,
// so values beyond any useful configuration are corruption, not parameters.
const maxWireK = 512

// FromParts reconstructs a filter from serialized state (wire decoding). The
// filter adopts words (bitset.FromWords): the caller must not touch the
// slice afterwards.
func FromParts(words []uint64, m uint64, k int, seed uint64, n uint64) (*Filter, error) {
	if k <= 0 || k > maxWireK {
		return nil, fmt.Errorf("bloom: k = %d, want 1..%d", k, maxWireK)
	}
	if m == 0 {
		return nil, fmt.Errorf("bloom: m = 0, want > 0")
	}
	bits, err := bitset.FromWords(words, m)
	if err != nil {
		return nil, fmt.Errorf("bloom: %w", err)
	}
	return &Filter{
		bits:   bits,
		family: hash.NewFamily(seed, k, m),
		n:      n,
	}, nil
}

// Add inserts v into the filter: it sets the k positions Family.Indexes
// returns. It steps the double hash itself and sets each bit on the
// filter's words, with no index buffer (which escaped to the heap above
// k = 16) and no bounds-checked call per bit; every index is below m, so
// it lies inside the words.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (f *Filter) Add(v int64) {
	h, step := f.family.Base(v)
	f.set(h, step)
}

// Contains reports whether v may be in the filter. False positives are
// possible; false negatives are not. It tests the positions Add sets, in
// the same order, and stops at the first clear one.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (f *Filter) Contains(v int64) bool {
	h, step := f.family.Base(v)
	return f.test(h, step)
}

// AddHash inserts an element the caller already hashed to 64 well-mixed
// bits (a routing digest's cell hash). The k positions step from that one
// hash (Kirsch–Mitzenmacher, "Less Hashing, Same Performance"): h, then
// h + i·h2 with h2 the same hash with its 32-bit halves swapped, forced
// odd, each reduced as Family.Reduce does — a mask on a power-of-two
// filter, so fold and expand (AbsorbFold) keep every element. The seed
// plays no part: AddHash and Add are separate key spaces, and a filter
// should be filled and probed through one of them only.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (f *Filter) AddHash(h uint64) { f.set(h, bits.RotateLeft64(h, 32)|1) }

// ContainsHash reports whether the element AddHash inserted as h may be in
// the filter.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (f *Filter) ContainsHash(h uint64) bool { return f.test(h, bits.RotateLeft64(h, 32)|1) }

// set sets the k positions h, h+step, … (reduced) and counts one element.
func (f *Filter) set(h, step uint64) {
	words := f.bits.Words()
	for i := f.family.K(); i > 0; i-- {
		idx := f.family.Reduce(h)
		words[idx/64] |= 1 << (idx % 64)
		h += step
	}
	f.n++
}

// test reports whether all k positions set would set are set, stopping at
// the first clear one.
func (f *Filter) test(h, step uint64) bool {
	words := f.bits.Words()
	for i := f.family.K(); i > 0; i-- {
		idx := f.family.Reduce(h)
		if words[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
		h += step
	}
	return true
}

// AbsorbFold ORs src's bits into f, folding or expanding across mismatched
// power-of-two lengths (bitset.OrFoldFrom), and accounts src's insertions.
// The caller is responsible for seed compatibility and for probing the
// result with at most src's hash count; given those, every element of src
// still tests positive in f — the union is conservative.
func (f *Filter) AbsorbFold(src *Filter) error {
	if err := f.bits.OrFoldFrom(src.bits); err != nil {
		return fmt.Errorf("bloom: %w", err)
	}
	f.n += src.n
	return nil
}

// N returns the number of Add calls (inserted elements, with multiplicity).
func (f *Filter) N() uint64 { return f.n }

// M returns the filter length in bits.
func (f *Filter) M() uint64 { return f.bits.Len() }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.family.K() }

// Words returns the bit storage for serialization: a read-only view of the
// filter's own words (bitset.Set.Words), not a copy. Do not modify it.
func (f *Filter) Words() []uint64 { return f.bits.Words() }

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 { return f.bits.FillRatio() }

// SizeBytes returns the in-memory size of the bit array, for the
// storage-cost experiments.
func (f *Filter) SizeBytes() uint64 { return f.bits.SizeBytes() }

// AnalyticFPRate returns the standard Bloom false-positive estimate for m
// bits, k hashes and n inserted elements: (1 - (1-1/m)^(k*n))^k, the
// quantity the paper calls the lower bound BF can guarantee (Table I's p
// and q).
func AnalyticFPRate(m uint64, k int, n uint64) float64 {
	if m == 0 || k <= 0 {
		return 1
	}
	pZero := math.Pow(1-1/float64(m), float64(k)*float64(n))
	return math.Pow(1-pZero, float64(k))
}

// OptimalParams returns the standard optimal (m, k) for n elements at the
// target false-positive rate: m = -n ln(p)/ln(2)^2, k = (m/n) ln(2).
func OptimalParams(n uint64, fpRate float64) (m uint64, k int) {
	if n == 0 {
		n = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	ln2 := math.Ln2
	mf := -float64(n) * math.Log(fpRate) / (ln2 * ln2)
	m = uint64(math.Ceil(mf))
	if m == 0 {
		m = 1
	}
	k = int(math.Round(mf / float64(n) * ln2))
	if k < 1 {
		k = 1
	}
	return m, k
}
