package pattern

import (
	"testing"
	"testing/quick"
)

func TestSubsetHelpers(t *testing.T) {
	s := Subset(0b101)
	if !s.Contains(0) || s.Contains(1) || !s.Contains(2) {
		t.Fatal("Contains wrong")
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

func TestPropertyWeightAdditivity(t *testing.T) {
	// A combination's weight numerator is its combined pattern's value sum.
	// For disjoint subsets S and T, Combine(S|T) is Combine(S) + Combine(T)
	// element-wise, so the sums add: what lets the data center add reported
	// weights and test the sum against 1. core's TestWeightRowsAdditive holds
	// the weight table to the same rule.
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
		cs, err1 := Combine(locals, s)
		ct, err2 := Combine(locals, tt)
		cst, err3 := Combine(locals, s|tt)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range cst {
			if cs[i]+ct[i] != cst[i] {
				return false
			}
		}
		return cs.Sum()+ct.Sum() == cst.Sum()
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
		combined, err := Combine(locals, 0b111)
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
