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

// FromParts reconstructs a filter from serialized state (wire decoding).
func FromParts(words []uint64, m uint64, k int, seed uint64, n uint64) (*Filter, error) {
	if k <= 0 || k > maxWireK {
		return nil, fmt.Errorf("bloom: k = %d, want 1..%d", k, maxWireK)
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

// Add inserts v into the filter.
func (f *Filter) Add(v int64) {
	var buf [16]uint64
	for _, idx := range f.family.Indexes(v, buf[:0]) {
		f.bits.Set(idx)
	}
	f.n++
}

// Contains reports whether v may be in the filter. False positives are
// possible; false negatives are not.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (f *Filter) Contains(v int64) bool {
	var buf [16]uint64
	for _, idx := range f.family.Indexes(v, buf[:0]) {
		if !f.bits.Test(idx) {
			return false
		}
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

// Words returns the bit storage for serialization.
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
