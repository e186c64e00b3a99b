package hash

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Bijective(t *testing.T) {
	// A bijection cannot collide; spot-check a window of inputs.
	seen := make(map[uint64]uint64, 4096)
	for i := uint64(0); i < 4096; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d) == %#x", i, prev, h)
		}
		seen[h] = i
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	const trials = 256
	var totalFlips, totalBits int
	for i := 0; i < trials; i++ {
		x := Mix64(uint64(i) * 0x1234567) // arbitrary spread of inputs
		for bit := 0; bit < 64; bit++ {
			diff := Mix64(x) ^ Mix64(x^(1<<bit))
			totalFlips += popcount64(diff)
			totalBits += 64
		}
	}
	ratio := float64(totalFlips) / float64(totalBits)
	if math.Abs(ratio-0.5) > 0.02 {
		t.Fatalf("avalanche ratio = %.4f, want within 0.02 of 0.5", ratio)
	}
}

func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestNewFamilyPanics(t *testing.T) {
	tests := []struct {
		name string
		k    int
		m    uint64
	}{
		{name: "zero k", k: 0, m: 8},
		{name: "negative k", k: -1, m: 8},
		{name: "zero m", k: 3, m: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewFamily(1, tt.k, tt.m)
		})
	}
}

func TestFamilyDeterministicAcrossInstances(t *testing.T) {
	f1 := NewFamily(42, 5, 1<<20)
	f2 := NewFamily(42, 5, 1<<20)
	for _, v := range []int64{0, 1, -1, 12345, math.MaxInt64, math.MinInt64} {
		a := f1.Indexes(v, nil)
		b := f2.Indexes(v, nil)
		if len(a) != len(b) {
			t.Fatalf("length mismatch: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("index %d for value %d: %d vs %d", i, v, a[i], b[i])
			}
		}
	}
}

func TestFamilySeedChangesIndexes(t *testing.T) {
	f1 := NewFamily(1, 4, 1<<16)
	f2 := NewFamily(2, 4, 1<<16)
	same := 0
	const n = 1000
	for v := int64(0); v < n; v++ {
		a := f1.Indexes(v, nil)
		b := f2.Indexes(v, nil)
		equal := true
		for i := range a {
			if a[i] != b[i] {
				equal = false
				break
			}
		}
		if equal {
			same++
		}
	}
	if same > n/100 {
		t.Fatalf("%d/%d values hashed identically under different seeds", same, n)
	}
}

func TestFamilyIndexesInRange(t *testing.T) {
	f := NewFamily(7, 6, 1000) // non-power-of-two range
	err := quick.Check(func(v int64) bool {
		for _, idx := range f.Indexes(v, nil) {
			if idx >= 1000 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFamilyIndexMatchesIndexes(t *testing.T) {
	f := NewFamily(9, 7, 1<<14)
	err := quick.Check(func(v int64) bool {
		all := f.Indexes(v, nil)
		for i := range all {
			if f.Index(v, i) != all[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestFamilyIndexesAreTheModuloFormula pins the mask reduction used for
// power-of-two ranges to the double-hashing formula (h1 + i·h2) mod m, and
// the division it replaces for every other range: digests and filters hash
// bit for bit as before. Reduce over Base, the pair bloom.Filter's probe
// loop steps itself, gives the same indexes.
func TestFamilyIndexesAreTheModuloFormula(t *testing.T) {
	for _, m := range []uint64{1, 2, 64, 1 << 23, 1 << 40, 3, 1000, 1<<23 + 1, 1<<40 - 1} {
		f := NewFamily(m*7+1, 7, m)
		for v := int64(-50_000); v < 50_000; v += 1 + v&3 {
			h1, h2 := f.Base(v)
			got := f.Indexes(v, nil)
			for i := range got {
				want := (h1 + uint64(i)*h2) % m
				if got[i] != want || f.Index(v, i) != want || f.Reduce(h1+uint64(i)*h2) != want {
					t.Fatalf("m=%d v=%d i=%d: Indexes %d, Index %d, Reduce %d, formula %d", m, v, i, got[i], f.Index(v, i), f.Reduce(h1+uint64(i)*h2), want)
				}
			}
		}
	}
}

func TestFamilyIndexesAppendsToDst(t *testing.T) {
	f := NewFamily(3, 2, 64)
	dst := make([]uint64, 0, 8)
	dst = f.Indexes(1, dst)
	dst = f.Indexes(2, dst)
	if len(dst) != 4 {
		t.Fatalf("len(dst) = %d, want 4", len(dst))
	}
	fresh := append(f.Indexes(1, nil), f.Indexes(2, nil)...)
	for i := range dst {
		if dst[i] != fresh[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], fresh[i])
		}
	}
}

func TestFamilyUniformity(t *testing.T) {
	// Chi-squared sanity check: hash 64k sequential integers into 256
	// buckets with one hash function and verify the statistic is not wildly
	// off. Sequential integers are the adversarial case for weak mixers.
	const (
		buckets = 256
		n       = 1 << 16
	)
	f := NewFamily(123, 1, buckets)
	counts := make([]int, buckets)
	for v := int64(0); v < n; v++ {
		counts[f.Index(v, 0)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 255 degrees of freedom: mean 255, stddev ~22.6. Allow a generous
	// ±8 sigma band so the test is stable while still catching a broken mixer
	// (which lands orders of magnitude away).
	if chi2 < 255-8*22.6 || chi2 > 255+8*22.6 {
		t.Fatalf("chi-squared = %.1f, outside sanity band around 255", chi2)
	}
}

func TestFamilyKDistinctnessForPow2M(t *testing.T) {
	// With odd h2 and power-of-two m, the k probe positions of one value are
	// distinct whenever k <= m.
	f := NewFamily(5, 8, 64)
	for v := int64(0); v < 2000; v++ {
		seen := make(map[uint64]bool, 8)
		for _, idx := range f.Indexes(v, nil) {
			if seen[idx] {
				t.Fatalf("value %d produced duplicate probe index %d", v, idx)
			}
			seen[idx] = true
		}
	}
}

func BenchmarkFamilyIndexes(b *testing.B) {
	f := NewFamily(1, 7, 1<<22)
	dst := make([]uint64, 0, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = f.Indexes(int64(i), dst[:0])
	}
	_ = dst
}
