// Package bitset implements a fixed-size dense bit set backed by a []uint64.
//
// It is the storage substrate for both the classic Bloom filter baseline and
// the Weighted Bloom Filter. The representation is stable (little-endian word
// order) so a set can be serialized by internal/wire and probed identically
// on another node.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a fixed-length bit set. The zero value is an empty set of length 0;
// use New for a set with capacity.
type Set struct {
	words []uint64
	n     uint64 // number of valid bits
}

// New returns a Set holding n bits, all zero.
func New(n uint64) *Set {
	return &Set{
		words: make([]uint64, (n+63)/64),
		n:     n,
	}
}

// FromWords reconstructs a Set of n bits from its word representation, e.g.
// after wire decoding. The set adopts words, without a copy: the caller hands
// the slice over and must not touch it afterwards. Every caller passes a
// slice it has just built (the wire decoder's readWords, index.Saturated's
// literal, the ablation's plain-Bloom view), so a copy would only double a
// received digest.
func FromWords(words []uint64, n uint64) (*Set, error) {
	if want := (n + 63) / 64; uint64(len(words)) != want {
		return nil, fmt.Errorf("bitset: %d words cannot hold exactly %d bits (want %d words)", len(words), n, want)
	}
	if n%64 != 0 && len(words) > 0 {
		if tail := words[len(words)-1] >> (n % 64); tail != 0 {
			return nil, fmt.Errorf("bitset: bits set beyond length %d", n)
		}
	}
	return &Set{words: words, n: n}, nil
}

// Len returns the number of bits the set holds.
func (s *Set) Len() uint64 { return s.n }

// Set turns bit i on. It panics if i is out of range, mirroring slice
// indexing semantics: an out-of-range bit is a programming error, not an
// environmental condition.
func (s *Set) Set(i uint64) {
	if i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
	s.words[i/64] |= 1 << (i % 64)
}

// Test reports whether bit i is on. Panics if i is out of range.
func (s *Set) Test(i uint64) bool {
	if i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
	return s.words[i/64]&(1<<(i%64)) != 0
}

// Count returns the number of bits that are on. The popcount loop runs four
// independent accumulators wide so the per-word counts pipeline instead of
// serializing on one add chain.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (s *Set) Count() uint64 {
	var c0, c1, c2, c3 uint64
	w := s.words
	i := 0
	for ; i+4 <= len(w); i += 4 {
		c0 += uint64(bits.OnesCount64(w[i]))
		c1 += uint64(bits.OnesCount64(w[i+1]))
		c2 += uint64(bits.OnesCount64(w[i+2]))
		c3 += uint64(bits.OnesCount64(w[i+3]))
	}
	for ; i < len(w); i++ {
		c0 += uint64(bits.OnesCount64(w[i]))
	}
	return c0 + c1 + c2 + c3
}

// FillRatio returns Count()/Len(), the fraction of set bits. It returns 0
// for an empty set.
func (s *Set) FillRatio() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.Count()) / float64(s.n)
}

// Words returns the underlying word storage, little-endian word order, for
// serialization. The result is a view, not a copy: only the set's owner may
// write bits through it (bloom.Filter's probe loop does, below Len), and
// nobody should keep it past the set's next Set, UnionWith or OrFoldFrom.
// FromWords adopts the slice it is given, so a second set over a copy needs
// the copy made first.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (s *Set) Words() []uint64 { return s.words }

// Equal reports whether two sets have the same length and identical bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}

// UnionWith ORs o into s. Both sets must have the same length.
//
// Digest accumulation — Bloofi tree builds, hierarchy union summaries —
// spends its time in this loop, so it is unrolled four words wide; the
// re-slice of s.words to o's length lets the compiler drop the bounds
// checks inside the unrolled body.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (s *Set) UnionWith(o *Set) error {
	if s.n != o.n {
		return fmt.Errorf("bitset: union of mismatched lengths %d and %d", s.n, o.n) // cold mismatch path, never taken while accumulating
	}
	b := o.words
	a := s.words[:len(b)]
	i := 0
	for ; i+4 <= len(b); i += 4 {
		a[i] |= b[i]
		a[i+1] |= b[i+1]
		a[i+2] |= b[i+2]
		a[i+3] |= b[i+3]
	}
	for ; i < len(b); i++ {
		a[i] |= b[i]
	}
	return nil
}

// OrFoldFrom ORs o into s across mismatched lengths, folding or expanding
// by word replication. Both lengths must be word-aligned multiples of 64 and
// one must divide the other.
//
// When o is longer, bit p of o lands on bit p mod s.Len() of s (fold); when
// o is shorter, every bit q of o lands on all bits ≡ q (mod o.Len()) of s
// (expand). For double-hashed Bloom positions over power-of-two lengths both
// directions are conservative: a position x mod M maps onto x mod m whenever
// m divides M, so any element whose bits are set in o has all its
// s-geometry bits set in s afterwards.
func (s *Set) OrFoldFrom(o *Set) error {
	if s.n == o.n {
		return s.UnionWith(o)
	}
	if s.n == 0 || o.n == 0 || s.n%64 != 0 || o.n%64 != 0 {
		return fmt.Errorf("bitset: fold of unaligned lengths %d and %d", s.n, o.n)
	}
	if o.n > s.n {
		if o.n%s.n != 0 {
			return fmt.Errorf("bitset: cannot fold %d bits onto %d (not a multiple)", o.n, s.n)
		}
		w := len(s.words)
		for i, x := range o.words {
			s.words[i%w] |= x
		}
		return nil
	}
	if s.n%o.n != 0 {
		return fmt.Errorf("bitset: cannot expand %d bits onto %d (not a multiple)", o.n, s.n)
	}
	w := len(o.words)
	for i := range s.words {
		s.words[i] |= o.words[i%w]
	}
	return nil
}

// SizeBytes returns the in-memory size of the bit storage in bytes, used by
// the storage-cost experiments.
func (s *Set) SizeBytes() uint64 {
	return uint64(len(s.words)) * 8
}
