package pattern

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestAccumulatePaperExamples(t *testing.T) {
	tests := []struct {
		name string
		give Pattern
		want Pattern
	}{
		{name: "paper {1,2,3}", give: Pattern{1, 2, 3}, want: Pattern{1, 3, 6}},
		{name: "paper {3,2,1}", give: Pattern{3, 2, 1}, want: Pattern{3, 5, 6}},
		{name: "empty", give: nil, want: nil},
		{name: "single", give: Pattern{7}, want: Pattern{7}},
		{name: "zeros", give: Pattern{0, 0, 0}, want: Pattern{0, 0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.Accumulate(); !got.Equal(tt.want) {
				t.Fatalf("Accumulate(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestAccumulateDistinguishesPermutations(t *testing.T) {
	// The motivating example: a plain value-set view cannot tell {1,2,3}
	// from {3,2,1}; the accumulated forms differ.
	a := Pattern{1, 2, 3}.Accumulate()
	b := Pattern{3, 2, 1}.Accumulate()
	if a.Equal(b) {
		t.Fatal("accumulated forms of distinct orderings are equal")
	}
}

func TestAccumulateMonotoneForNonNegative(t *testing.T) {
	f := func(raw []uint16) bool {
		p := make(Pattern, len(raw))
		for i, v := range raw {
			p[i] = int64(v)
		}
		acc := p.Accumulate()
		return sort.SliceIsSorted(acc, func(i, j int) bool { return acc[i] < acc[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateMaxEqualsSum(t *testing.T) {
	// For non-negative p, max(Accumulate(p)) == Sum(p): the weight-numerator
	// identity the WBF relies on.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		p := make(Pattern, len(raw))
		for i, v := range raw {
			p[i] = int64(v)
		}
		return p.Accumulate().Max() == p.Sum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimilar(t *testing.T) {
	tests := []struct {
		name string
		p, q Pattern
		eps  int64
		want bool
	}{
		{name: "identical eps 0", p: Pattern{3, 4, 5}, q: Pattern{3, 4, 5}, eps: 0, want: true},
		{name: "off by one within eps", p: Pattern{3, 4, 5}, q: Pattern{4, 3, 5}, eps: 1, want: true},
		{name: "off by one outside eps", p: Pattern{3, 4, 5}, q: Pattern{4, 3, 5}, eps: 0, want: false},
		{name: "length mismatch", p: Pattern{1, 2}, q: Pattern{1, 2, 3}, eps: 10, want: false},
		{name: "empty vs empty", p: nil, q: nil, eps: 0, want: true},
		{name: "one interval violates", p: Pattern{1, 1, 9}, q: Pattern{1, 1, 1}, eps: 2, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Similar(tt.p, tt.q, tt.eps); got != tt.want {
				t.Fatalf("Similar(%v,%v,%d) = %v, want %v", tt.p, tt.q, tt.eps, got, tt.want)
			}
		})
	}
}

func TestSimilarMatchesMaxAbsDiff(t *testing.T) {
	f := func(rawP, rawQ []uint8, eps uint8) bool {
		n := len(rawP)
		if len(rawQ) < n {
			n = len(rawQ)
		}
		p := make(Pattern, n)
		q := make(Pattern, n)
		for i := 0; i < n; i++ {
			p[i], q[i] = int64(rawP[i]), int64(rawQ[i])
		}
		d, err := MaxAbsDiff(p, q)
		if err != nil {
			return false
		}
		return Similar(p, q, int64(eps)) == (d <= int64(eps))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbsDiffLengthMismatch(t *testing.T) {
	if _, err := MaxAbsDiff(Pattern{1}, Pattern{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestAddAndSumAll(t *testing.T) {
	a := Pattern{1, 2, 3}
	b := Pattern{2, 2, 2}
	got, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(Pattern{3, 4, 5}) {
		t.Fatalf("Add = %v, want {3,4,5}", got)
	}
	// The paper's running example: three station pieces aggregate to the
	// query pattern.
	sum, err := SumAll([]Pattern{{1, 1, 1}, {2, 2, 0}, {0, 1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(Pattern{3, 4, 5}) {
		t.Fatalf("SumAll = %v, want {3,4,5}", sum)
	}
	if _, err := Add(Pattern{1}, Pattern{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("Add mismatch err = %v", err)
	}
	if _, err := SumAll(nil); err == nil {
		t.Fatal("SumAll(nil) should error")
	}
	if _, err := SumAll([]Pattern{{1}, {1, 2}}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("SumAll mismatch err = %v", err)
	}
}

func TestAddDoesNotAliasInputs(t *testing.T) {
	a := Pattern{1, 2}
	b := Pattern{3, 4}
	got, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 99
	if a[0] != 1 || b[0] != 3 {
		t.Fatal("Add result aliases an input")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Pattern{1, 2, 3}
	c := p.Clone()
	c[0] = 42
	if p[0] != 1 {
		t.Fatal("Clone aliases original")
	}
	if Pattern(nil).Clone() != nil {
		t.Fatal("Clone(nil) should be nil")
	}
}

func TestSumMaxNonNegative(t *testing.T) {
	p := Pattern{5, 1, 4}
	if p.Sum() != 10 {
		t.Fatalf("Sum = %d", p.Sum())
	}
	if p.Max() != 5 {
		t.Fatalf("Max = %d", p.Max())
	}
	if Pattern(nil).Max() != 0 {
		t.Fatal("Max(nil) should be 0")
	}
	if !p.IsNonNegative() {
		t.Fatal("IsNonNegative false for non-negative pattern")
	}
	if (Pattern{1, -1}).IsNonNegative() {
		t.Fatal("IsNonNegative true for negative pattern")
	}
	if (Pattern{-5, 3}).Max() != 3 {
		t.Fatal("Max mishandles leading negative")
	}
}

func TestNormalize(t *testing.T) {
	p := Pattern{1, 2, 3}
	norm := p.Normalize()
	// Mean of {1,2,3} is 2, so normalized = {0.5, 1, 1.5}.
	want := []float64{0.5, 1, 1.5}
	for i := range want {
		if math.Abs(norm[i]-want[i]) > 1e-12 {
			t.Fatalf("Normalize[%d] = %v, want %v", i, norm[i], want[i])
		}
	}
	zeros := Pattern{0, 0}.Normalize()
	if zeros[0] != 0 || zeros[1] != 0 {
		t.Fatal("Normalize of zero pattern should be zeros")
	}
}
