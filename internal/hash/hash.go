// Package hash provides the deterministic hash family used by the Bloom
// filter variants in this repository.
//
// The data center encodes query patterns into a filter and ships it to base
// stations, which probe the same filter against their local data. Both sides
// must therefore derive bit-for-bit identical hash values for the same input
// on any machine and in any process. The package consequently avoids
// process-seeded hashes (hash/maphash) and uses a fixed, explicitly seeded
// 64-bit mixing function instead.
//
// K independent-enough hash functions are derived from two base hashes with
// the Kirsch–Mitzenmacher double-hashing construction,
//
//	h_i(x) = h1(x) + i*h2(x)  (mod m),
//
// which preserves the asymptotic false-positive behaviour of k independent
// hashes while costing only two hash evaluations per element.
package hash

// Golden-ratio odd constants used by the splitmix64 finalizer.
const (
	splitmixGamma = 0x9e3779b97f4a7c15
	mixMul1       = 0xbf58476d1ce4e5b9
	mixMul2       = 0x94d049bb133111eb
)

// Mix64 applies the splitmix64 finalizer to x, producing a well-distributed
// 64-bit value. It is a bijection on uint64, so distinct inputs can never
// collide at this stage.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func Mix64(x uint64) uint64 {
	x += splitmixGamma
	x = (x ^ (x >> 30)) * mixMul1
	x = (x ^ (x >> 27)) * mixMul2
	return x ^ (x >> 31)
}

// PositionSalt returns the key-space salt of position i (from 0) under
// seed: Mix64(seed ^ (i+1)·c) for an odd 64-bit multiplier c that spreads
// the positions across the key space. A position-salted WBF salts sample
// slot i with it and a routing digest pattern position i, so a value keyed
// at one position never satisfies a probe at another.
func PositionSalt(seed uint64, i int) uint64 {
	return Mix64(seed ^ (uint64(i+1) * 0x8f3c9d1b5a7e42d1))
}

// Family is a deterministic family of k hash functions over signed 64-bit
// values, mapping each value to k indices in [0, m).
//
// The zero value is not usable; construct with NewFamily.
type Family struct {
	seed1 uint64
	seed2 uint64
	k     int
	m     uint64
	mask  uint64 // m−1 when m is a power of two above 1, else 0
}

// NewFamily returns a hash family of k functions onto the range [0, m).
// Families built with equal (seed, k, m) are interchangeable across
// processes. k and m must be positive.
func NewFamily(seed uint64, k int, m uint64) Family {
	if k <= 0 {
		panic("hash: k must be positive")
	}
	if m == 0 {
		panic("hash: m must be positive")
	}
	f := Family{
		// Derive two decorrelated seeds from the user seed.
		seed1: Mix64(seed),
		seed2: Mix64(seed ^ 0xa5a5a5a5a5a5a5a5),
		k:     k,
		m:     m,
	}
	if m&(m-1) == 0 {
		f.mask = m - 1
	}
	return f
}

// K returns the number of hash functions in the family.
func (f Family) K() int { return f.k }

// M returns the size of the index range.
func (f Family) M() uint64 { return f.m }

// Indexes appends the k bit indices for value v to dst and returns the
// extended slice. Passing a reusable dst avoids per-call allocations on the
// hot path (stations hash every resident pattern against the filter).
func (f Family) Indexes(v int64, dst []uint64) []uint64 {
	h, step := f.Base(v)
	for i := 0; i < f.k; i++ {
		dst = append(dst, f.Reduce(h))
		h += step
	}
	return dst
}

// Index returns the i-th hash of v, for i in [0, k).
func (f Family) Index(v int64, i int) uint64 {
	h1, h2 := f.Base(v)
	return f.Reduce(h1 + uint64(i)*h2)
}

// Reduce maps a probe hash onto [0, m): h mod m, as a mask when m is a power
// of two (every digest). The i-th index of v is Reduce(h1 + i·h2) over
// Base(v), which is all Indexes computes; a caller that consumes the indexes
// one at a time (bloom.Filter's probe loop) steps h1 by h2 itself instead of
// filling a buffer.
func (f Family) Reduce(h uint64) uint64 {
	if f.mask != 0 {
		return h & f.mask
	}
	return h % f.m
}

// Base computes the two underlying hashes for the double-hashing scheme.
// h2 is forced odd so that, for power-of-two m, the probe sequence visits m
// distinct slots; for general m it simply avoids the degenerate h2 = 0.
func (f Family) Base(v int64) (h1, h2 uint64) {
	x := uint64(v)
	h1 = Mix64(x ^ f.seed1)
	h2 = Mix64(x^f.seed2) | 1
	return h1, h2
}
