package core

import (
	"testing"
	"testing/quick"

	"dimatch/internal/pattern"
)

func TestQueryValidate(t *testing.T) {
	tests := []struct {
		name    string
		q       Query
		wantErr bool
	}{
		{
			name: "paper running example",
			q:    Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}, {2, 2, 2}}},
		},
		{
			name: "single local",
			q:    Query{ID: 2, Locals: []pattern.Pattern{{3, 4, 5}}},
		},
		{name: "no locals", q: Query{ID: 3}, wantErr: true},
		{
			name:    "length mismatch",
			q:       Query{ID: 4, Locals: []pattern.Pattern{{1, 2}, {1, 2, 3}}},
			wantErr: true,
		},
		{
			name:    "negative values",
			q:       Query{ID: 5, Locals: []pattern.Pattern{{1, -2, 3}}},
			wantErr: true,
		},
		{
			name:    "all zero",
			q:       Query{ID: 6, Locals: []pattern.Pattern{{0, 0, 0}, {0, 0, 0}}},
			wantErr: true,
		},
		{
			name:    "empty patterns",
			q:       Query{ID: 7, Locals: []pattern.Pattern{{}}},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.q.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestQueryValidateTooManyLocals(t *testing.T) {
	locals := make([]pattern.Pattern, pattern.MaxLocals+1)
	for i := range locals {
		locals[i] = pattern.Pattern{1}
	}
	q := Query{ID: 1, Locals: locals}
	if err := q.Validate(); err == nil {
		t.Fatal("expected error for too many locals")
	}
}

func TestQueryGlobal(t *testing.T) {
	q := Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}, {2, 2, 2}}}
	g, err := q.Global()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(pattern.Pattern{3, 4, 5}) {
		t.Fatalf("Global = %v, want {3,4,5}", g)
	}
	if q.Length() != 3 {
		t.Fatalf("Length = %d", q.Length())
	}
	if (Query{}).Length() != 0 {
		t.Fatal("empty query Length should be 0")
	}
}

// TestWeightRowsCount: e locals of which z sum to zero give 2^e − 2^z rows,
// one per non-empty subset mask with a nonzero numerator, masks ascending
// and none repeated — the paper's Ψ = 2^e − 1 combinations (Eq. 4) when no
// local is empty.
func TestWeightRowsCount(t *testing.T) {
	for e := 1; e <= 10; e++ {
		for z := 0; z < e; z++ {
			sums := make([]int64, e)
			for j := z; j < e; j++ {
				sums[j] = int64(j + 1)
			}
			rows := WeightRows(nil, 3, sums)
			if want := 1<<e - 1<<z; len(rows) != want {
				t.Fatalf("e=%d z=%d: %d rows, want %d", e, z, len(rows), want)
			}
			for i, r := range rows {
				if r.Mask == 0 || (i > 0 && r.Mask <= rows[i-1].Mask) || r.Numerator == 0 || r.Query != 3 {
					t.Fatalf("e=%d z=%d: row %d is %+v after %+v", e, z, i, r, rows[max(i-1, 0)])
				}
			}
		}
	}
}

// TestWeightRowsPaperExample: the running example's locals {1,2,3} and
// {2,2,2} (global {3,4,5}) weigh 6/12 each and 12/12 together: weight =
// sum(combination) / sum(global), additive over the partition.
func TestWeightRowsPaperExample(t *testing.T) {
	q := Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}, {2, 2, 2}}}
	rows := WeightRows(nil, q.ID, q.localSums())
	want := []WeightEntry{
		{Query: 1, Mask: 0b01, Numerator: 6, Denominator: 12},
		{Query: 1, Mask: 0b10, Numerator: 6, Denominator: 12},
		{Query: 1, Mask: 0b11, Numerator: 12, Denominator: 12},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v, want %+v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
}

// TestWeightRowsAdditive: for disjoint masks S and T the numerators add,
// num(S|T) = num(S) + num(T), every row's denominator is the full mask's
// numerator, and that is the global pattern's value sum — what lets the data
// center add reported weights and test the sum against 1.
func TestWeightRowsAdditive(t *testing.T) {
	f := func(vals [4][3]uint8) bool {
		q := Query{ID: 9, Locals: make([]pattern.Pattern, 4)}
		for i := range q.Locals {
			q.Locals[i] = pattern.Pattern{int64(vals[i][0]), int64(vals[i][1]), int64(vals[i][2])}
		}
		num := make(map[pattern.Subset]int64)
		rows := WeightRows(nil, q.ID, q.localSums())
		for _, r := range rows {
			num[r.Mask] = r.Numerator // absent: a zero-numerator combination
		}
		for s := pattern.Subset(1); s < 16; s++ {
			for u := pattern.Subset(1); u < 16; u++ {
				if s&u == 0 && num[s]+num[u] != num[s|u] {
					return false
				}
			}
		}
		global, err := q.Global()
		if err != nil {
			return false
		}
		for _, r := range rows {
			if r.Denominator != num[0b1111] {
				return false
			}
		}
		return num[0b1111] == global.Sum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
