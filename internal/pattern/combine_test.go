package pattern

import (
	"testing"
	"testing/quick"
)

func TestEnumerateSubsetsCount(t *testing.T) {
	for e := 1; e <= 10; e++ {
		subs, err := EnumerateSubsets(e)
		if err != nil {
			t.Fatal(err)
		}
		if want := (1 << uint(e)) - 1; len(subs) != want {
			t.Fatalf("e=%d: %d subsets, want %d (= 2^e - 1, Eq. 4)", e, len(subs), want)
		}
		seen := make(map[Subset]bool, len(subs))
		for _, s := range subs {
			if s == 0 {
				t.Fatal("empty subset enumerated")
			}
			if seen[s] {
				t.Fatalf("duplicate subset %s", s)
			}
			seen[s] = true
		}
	}
}

func TestEnumerateSubsetsBounds(t *testing.T) {
	if _, err := EnumerateSubsets(0); err == nil {
		t.Fatal("expected error for e=0")
	}
	if _, err := EnumerateSubsets(MaxLocals + 1); err == nil {
		t.Fatal("expected error for e beyond MaxLocals")
	}
}

func TestSubsetHelpers(t *testing.T) {
	s := Subset(0b101)
	if !s.Contains(0) || s.Contains(1) || !s.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if s.Card() != 2 {
		t.Fatalf("Card = %d", s.Card())
	}
	if Full(3) != 0b111 {
		t.Fatalf("Full(3) = %b", Full(3))
	}
	if got := s.String(); got != "{0,2}" {
		t.Fatalf("String = %q", got)
	}
}

func TestCombinePaperExample(t *testing.T) {
	// Query global {3,4,5} with locals {1,2,3} and {2,2,2}.
	locals := []Pattern{{1, 2, 3}, {2, 2, 2}}
	tests := []struct {
		mask Subset
		want Pattern
	}{
		{mask: 0b01, want: Pattern{1, 2, 3}},
		{mask: 0b10, want: Pattern{2, 2, 2}},
		{mask: 0b11, want: Pattern{3, 4, 5}},
	}
	for _, tt := range tests {
		got, err := Combine(locals, tt.mask)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(tt.want) {
			t.Fatalf("Combine(%s) = %v, want %v", tt.mask, got, tt.want)
		}
	}
}

func TestCombineErrors(t *testing.T) {
	locals := []Pattern{{1, 2}, {1, 2, 3}}
	if _, err := Combine(locals, 0); err == nil {
		t.Fatal("expected error for empty subset")
	}
	if _, err := Combine(locals, 0b100); err == nil {
		t.Fatal("expected error for out-of-range subset")
	}
	if _, err := Combine(locals, 0b11); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestCombineDoesNotAliasLocals(t *testing.T) {
	locals := []Pattern{{1, 2, 3}}
	got, err := Combine(locals, 0b1)
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 99
	if locals[0][0] != 1 {
		t.Fatal("Combine aliases a local pattern")
	}
}

func TestWeightNumeratorPaperExample(t *testing.T) {
	// Paper: "the weight of a pattern {1,2,3} is 3/9, with respect to the
	// global pattern {4,7,9}" — in accumulated form {1,3,6} has max 6 and
	// the accumulated global {4,11,20} has max 20; but the paper's fraction
	// 3/9 uses the accumulated-form maxima of the ORIGINAL series stated in
	// accumulated terms: {1,2,3} accumulates to max 6 and the global
	// non-accumulated max is 9. We follow the self-consistent rule
	// weight = sum(local)/sum(global), which reproduces the paper's 1/…
	// additivity exactly: sums are 6 and 20 here, and for the worked
	// running example below the weights add to 1.
	locals := []Pattern{{1, 2, 3}, {2, 2, 2}} // global {3,4,5}, sum 12
	w1, err := WeightNumerator(locals, 0b01)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := WeightNumerator(locals, 0b10)
	if err != nil {
		t.Fatal(err)
	}
	wAll, err := WeightNumerator(locals, 0b11)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != 6 || w2 != 6 || wAll != 12 {
		t.Fatalf("numerators = %d,%d,%d, want 6,6,12", w1, w2, wAll)
	}
	if w1+w2 != wAll {
		t.Fatal("weight additivity violated")
	}
}

func TestWeightNumeratorErrors(t *testing.T) {
	locals := []Pattern{{1}}
	if _, err := WeightNumerator(locals, 0); err == nil {
		t.Fatal("expected error for empty subset")
	}
	if _, err := WeightNumerator(locals, 0b10); err == nil {
		t.Fatal("expected error for out-of-range subset")
	}
}

func TestPropertyWeightAdditivity(t *testing.T) {
	// For disjoint subsets S and T, num(S|T) = num(S) + num(T), and the full
	// subset has numerator sum(global): what lets the data center add
	// reported weights and test the sum against 1.
	f := func(vals [4][3]uint8, rawS, rawT uint8) bool {
		locals := make([]Pattern, 4)
		for i := range locals {
			locals[i] = Pattern{int64(vals[i][0]), int64(vals[i][1]), int64(vals[i][2])}
		}
		s := Subset(rawS % 16)
		tt := Subset(rawT % 16)
		if s == 0 || tt == 0 || s&tt != 0 {
			return true // only disjoint non-empty pairs are constrained
		}
		ns, err1 := WeightNumerator(locals, s)
		nt, err2 := WeightNumerator(locals, tt)
		nst, err3 := WeightNumerator(locals, s|tt)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		if ns+nt != nst {
			return false
		}
		global, err := Combine(locals, Full(4))
		if err != nil {
			return false
		}
		nFull, err := WeightNumerator(locals, Full(4))
		if err != nil {
			return false
		}
		return nFull == global.Sum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCombineMatchesSumAll(t *testing.T) {
	f := func(vals [3][4]uint8) bool {
		locals := make([]Pattern, 3)
		for i := range locals {
			locals[i] = Pattern{int64(vals[i][0]), int64(vals[i][1]), int64(vals[i][2]), int64(vals[i][3])}
		}
		combined, err := Combine(locals, Full(3))
		if err != nil {
			return false
		}
		summed, err := SumAll(locals)
		if err != nil {
			return false
		}
		return combined.Equal(summed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
