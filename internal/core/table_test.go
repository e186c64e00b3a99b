package core

import (
	"reflect"
	"slices"
	"testing"
)

// TestTableCapClearsMidWalk: a table past its cap is cleared at the next row
// boundary, and the walk goes on to answer every row, and every report, as
// an uncapped walk does.
func TestTableCapClearsMidWalk(t *testing.T) {
	f, persons, locals := denseWalk(t)
	type answer struct {
		ids []WeightID
		ok  bool
	}
	uncapped := make([]answer, len(locals))
	m := NewMatcher(f)
	for i, local := range locals {
		ids, ok, err := m.Match(local)
		if err != nil {
			t.Fatal(err)
		}
		uncapped[i] = answer{slices.Clone(ids), ok}
	}
	want, err := MatchResidents(f, persons, locals, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 1, 8, 64} {
		restore := SetTableCap(limit)
		m := NewMatcher(f)
		clears, row := 0, len(f.SampleIndexes())*f.family.K() // the steps one row can add
		for i, local := range locals {
			full := m.table.full()
			ids, ok, err := m.Match(local)
			if err != nil {
				t.Fatal(err)
			}
			if full {
				if clears++; m.table.nsteps > row {
					t.Fatalf("cap %d, row %d: the table was full and holds %d steps after the row; a cleared one holds at most %d", limit, i, m.table.nsteps, row)
				}
			}
			if got := (answer{slices.Clone(ids), ok}); !reflect.DeepEqual(got, uncapped[i]) {
				t.Fatalf("cap %d, row %d after %d clears: %v, uncapped %v", limit, i, clears, got, uncapped[i])
			}
		}
		if clears == 0 {
			t.Fatalf("cap %d: the table was never cleared over %d rows", limit, len(locals))
		}
		for _, workers := range []int{1, 2} {
			got, err := MatchResidents(f, persons, locals, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d, %d workers: %d reports, uncapped %d, or other pointers", limit, workers, len(got), len(want))
			}
		}
		restore()
		t.Logf("cap %d: %d clears over %d rows", limit, clears, len(locals))
	}
}
