package bloom

import (
	"math"
	"testing"
	"testing/quick"
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
