package bloom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dimatch/internal/hash"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3, 1); err == nil {
		t.Fatal("expected error for m=0")
	}
	if _, err := New(64, 0, 1); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f, err := New(1<<12, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 200; v++ {
		f.Add(v * 31)
	}
	for v := int64(0); v < 200; v++ {
		if !f.Contains(v * 31) {
			t.Fatalf("false negative for %d", v*31)
		}
	}
	if f.N() != 200 {
		t.Fatalf("N = %d, want 200", f.N())
	}
}

// TestFilterProbesAreFamilyIndexes pins Add and Contains, which step the
// double hash themselves, to hash.Family.Indexes: after some Adds the words
// hold exactly the union of the added values' Indexes, a filter holding
// exactly one value's Indexes contains it, and clearing any one of those
// positions makes Contains false. Power-of-two m takes the mask reduction,
// every other m the division; k covers 1..17 and the wire cap 512.
func TestFilterProbesAreFamilyIndexes(t *testing.T) {
	ks := []int{maxWireK}
	for k := 1; k <= 17; k++ {
		ks = append(ks, k)
	}
	for _, m := range []uint64{1, 64, 1 << 12, 1 << 20, 3, 1000, 1<<12 + 1} {
		for _, k := range ks {
			t.Run(fmt.Sprintf("m=%d/k=%d", m, k), func(t *testing.T) {
				seed := m*31 + uint64(k)
				fam := hash.NewFamily(seed, k, m)
				f, err := New(m, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]uint64, len(f.Words()))
				for v := int64(-3); v < 6; v++ {
					f.Add(v * 0x9e3779b9)
					for _, idx := range fam.Indexes(v*0x9e3779b9, nil) {
						want[idx/64] |= 1 << (idx % 64)
					}
					if !slices.Equal(f.Words(), want) {
						t.Fatalf("after Add(%d): words differ from the union of Family.Indexes", v*0x9e3779b9)
					}
				}

				const v = int64(-77)
				idxs := fam.Indexes(v, nil)
				one := make([]uint64, len(want))
				for _, idx := range idxs {
					one[idx/64] |= 1 << (idx % 64)
				}
				g, err := FromParts(one, m, k, seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !g.Contains(v) {
					t.Fatalf("Contains(%d) = false over exactly its Indexes", v)
				}
				words := g.Words() // g's own words: cleared and restored in place
				for _, idx := range idxs {
					words[idx/64] &^= 1 << (idx % 64)
					if g.Contains(v) {
						t.Fatalf("Contains(%d) = true with index %d cleared", v, idx)
					}
					words[idx/64] |= 1 << (idx % 64)
				}
			})
		}
	}
}

// TestAddHashProbes pins the hashed entry point: AddHash(h) sets exactly
// the positions h + i·h2 (mod m), h2 being h with its 32-bit halves swapped
// and forced odd; ContainsHash is true on them and false with any one
// cleared; and on power-of-two filters every added hash still tests
// positive after a fold onto a smaller filter or an expand onto a larger one
// probed with at most k hashes.
func TestAddHashProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []uint64{64, 1 << 12, 1000} {
		for _, k := range []int{1, 7, 17} {
			t.Run(fmt.Sprintf("m=%d/k=%d", m, k), func(t *testing.T) {
				f, err := New(m, k, 1)
				if err != nil {
					t.Fatal(err)
				}
				var hs []uint64
				want := make([]uint64, len(f.Words()))
				for j := 0; j < 20; j++ {
					h := rng.Uint64()
					hs = append(hs, h)
					f.AddHash(h)
					step := h>>32 | h<<32 | 1
					for i, x := 0, h; i < k; i, x = i+1, x+step {
						idx := x % m
						want[idx/64] |= 1 << (idx % 64)
					}
					if !slices.Equal(f.Words(), want) {
						t.Fatalf("after AddHash(%#x): words differ from the stepped positions", h)
					}
				}
				if f.N() != uint64(len(hs)) {
					t.Fatalf("N = %d after %d AddHash calls", f.N(), len(hs))
				}
				one, err := New(m, k, 1)
				if err != nil {
					t.Fatal(err)
				}
				h := hs[0]
				one.AddHash(h)
				words := one.Words()
				for w := range words {
					for b := 0; b < 64; b++ {
						if words[w]&(1<<b) == 0 {
							continue
						}
						words[w] &^= 1 << b
						if one.ContainsHash(h) {
							t.Fatalf("ContainsHash true with bit %d cleared", 64*w+b)
						}
						words[w] |= 1 << b
					}
				}
				if !one.ContainsHash(h) {
					t.Fatal("ContainsHash false over exactly its positions")
				}
				if m&(m-1) != 0 {
					return
				}
				for _, to := range []uint64{64, m / 2, m * 4} {
					if to < 64 {
						continue
					}
					for _, tk := range []int{1, k} {
						u, err := New(to, tk, 9)
						if err != nil {
							t.Fatal(err)
						}
						if err := u.AbsorbFold(f); err != nil {
							t.Fatal(err)
						}
						for _, h := range hs {
							if !u.ContainsHash(h) {
								t.Fatalf("%d-bit union at k = %d lost hash %#x of a %d-bit filter", to, tk, h, m)
							}
						}
					}
				}
			})
		}
	}
}

func TestPropertyNoFalseNegatives(t *testing.T) {
	f := func(vals []int64) bool {
		bf, err := New(1<<14, 5, 7)
		if err != nil {
			return false
		}
		for _, v := range vals {
			bf.Add(v)
		}
		for _, v := range vals {
			if !bf.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestObservedFPRateNearAnalytic(t *testing.T) {
	const (
		m = 1 << 14
		k = 5
		n = 1500
	)
	f, err := New(m, k, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < n; v++ {
		f.Add(v)
	}
	fp := 0
	const probes = 20000
	for v := int64(n); v < n+probes; v++ {
		if f.Contains(v) {
			fp++
		}
	}
	observed := float64(fp) / probes
	analytic := AnalyticFPRate(m, k, n)
	if observed > analytic*2+0.01 {
		t.Fatalf("observed FP rate %.4f far above analytic %.4f", observed, analytic)
	}
	if analytic > 0.05 {
		t.Fatalf("analytic FP rate %.4f unexpectedly high for this sizing", analytic)
	}
}

func TestFromPartsRoundTrip(t *testing.T) {
	f, err := New(256, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 20; v++ {
		f.Add(v)
	}
	g, err := FromParts(f.Words(), f.M(), f.K(), 11, f.N())
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 20; v++ {
		if !g.Contains(v) {
			t.Fatalf("reconstructed filter lost element %d", v)
		}
	}
	if g.N() != f.N() || g.M() != f.M() || g.K() != f.K() {
		t.Fatal("reconstructed parameters differ")
	}
	// Probing behaviour must be bit-for-bit identical: same verdict on a
	// sweep of non-inserted values.
	for v := int64(100); v < 400; v++ {
		if f.Contains(v) != g.Contains(v) {
			t.Fatalf("verdict mismatch for %d after round trip", v)
		}
	}
}

func TestFromPartsValidation(t *testing.T) {
	if _, err := FromParts([]uint64{0}, 128, 3, 1, 0); err == nil {
		t.Fatal("expected word-count error")
	}
	if _, err := FromParts([]uint64{0}, 64, 0, 1, 0); err == nil {
		t.Fatal("expected k error")
	}
	// A frame declaring zero bits and no words is an error, not a panic in
	// the hash family.
	if _, err := FromParts(nil, 0, 3, 1, 0); err == nil {
		t.Fatal("expected m error")
	}
}

func TestOptimalParams(t *testing.T) {
	m, k := OptimalParams(1000, 0.01)
	// Standard formula: ~9.59 bits/element and k ~ 7 at 1% FP.
	if m < 9000 || m > 10100 {
		t.Fatalf("m = %d, want ~9586", m)
	}
	if k < 6 || k > 8 {
		t.Fatalf("k = %d, want ~7", k)
	}
	// Degenerate inputs fall back to safe defaults rather than zeros.
	m, k = OptimalParams(0, -1)
	if m == 0 || k < 1 {
		t.Fatalf("degenerate OptimalParams = (%d,%d)", m, k)
	}
}

func TestAnalyticFPRateMonotoneInN(t *testing.T) {
	prev := 0.0
	for n := uint64(0); n <= 5000; n += 500 {
		r := AnalyticFPRate(1<<12, 4, n)
		if r < prev {
			t.Fatalf("FP rate decreased as n grew: %v -> %v at n=%d", prev, r, n)
		}
		if r < 0 || r > 1 {
			t.Fatalf("FP rate %v outside [0,1]", r)
		}
		prev = r
	}
	if got := AnalyticFPRate(0, 4, 10); got != 1 {
		t.Fatalf("AnalyticFPRate(m=0) = %v, want 1", got)
	}
}

func TestFillRatioGrowsWithInserts(t *testing.T) {
	f, err := New(1024, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if f.FillRatio() != 0 {
		t.Fatal("fresh filter should be empty")
	}
	for v := int64(0); v < 100; v++ {
		f.Add(v)
	}
	if f.FillRatio() <= 0 {
		t.Fatal("fill ratio did not grow")
	}
	if f.SizeBytes() != 1024/8 {
		t.Fatalf("SizeBytes = %d", f.SizeBytes())
	}
}

func TestOptimalParamsAchieveTarget(t *testing.T) {
	for _, target := range []float64{0.1, 0.01, 0.001} {
		m, k := OptimalParams(5000, target)
		got := AnalyticFPRate(m, k, 5000)
		if got > target*1.3 {
			t.Fatalf("target %v: analytic rate %v with (m=%d,k=%d)", target, got, m, k)
		}
		if math.IsNaN(got) {
			t.Fatal("NaN rate")
		}
	}
}
