// AllocsPerRun pins: (*Matcher).Match, sampledAccumulate,
// (*stateTable).walk and intersectSorted — the per-resident station probe
// path — held to 0 allocs/op after one warm-up call grows the matcher's
// scratch buffers and its transition table.
package core

import (
	"slices"
	"testing"

	"dimatch/internal/pattern"
)

var (
	matchSink  []WeightID
	boolSink   bool
	valsSink   []int64
	weightSink []WeightID
	stateSink  uint32
)

// warmMatcher builds the paper's running-example filter and a matcher that
// has already matched once, so every scratch buffer is at steady-state
// capacity.
func warmMatcher(t *testing.T) (*Matcher, pattern.Pattern) {
	t.Helper()
	f := buildPaperFilter(t, testParams())
	m := NewMatcher(f)
	p := pattern.Pattern{1, 2, 3}
	if _, ok, err := m.Match(p); err != nil || !ok {
		t.Fatalf("warm-up match: ok=%v err=%v", ok, err)
	}
	return m, p
}

func TestNoallocMatcherMatch(t *testing.T) {
	m, p := warmMatcher(t)
	miss := pattern.Pattern{9, 9, 9}
	cells := pattern.AppendCells(nil, p) // a station's row
	if n := testing.AllocsPerRun(100, func() {
		matchSink, boolSink, _ = m.Match(p)
		matchSink, boolSink, _ = m.Match(miss)
		matchSink, boolSink, _ = matchRow(m, cells)
	}); n != 0 {
		t.Fatalf("(*Matcher).Match allocates %v times per run; want 0", n)
	}
}

func TestNoallocMatchersampledAccumulate(t *testing.T) {
	m, p := warmMatcher(t)
	cells := pattern.AppendCells(nil, p) // a station's row
	if n := testing.AllocsPerRun(100, func() {
		valsSink = sampledAccumulate(m, p)
		valsSink = sampledAccumulate(m, cells)
	}); n != 0 {
		t.Fatalf("sampledAccumulate allocates %v times per run; want 0", n)
	}
}

// TestNoallocTableWalk: a warm transition table walks a row, hit or miss,
// allocating nothing, whether it remembers every step or, with its cap at
// one step, is cleared before every row.
func TestNoallocTableWalk(t *testing.T) {
	m, p := warmMatcher(t)
	rows := [][]int64{sampledAccumulate(m, p), {9, 18, 27}, {2, 4, 6}}
	for i, row := range rows {
		rows[i] = slices.Clone(row)
	}
	for _, limit := range []int{tableCap, 1} {
		restore := SetTableCap(limit)
		walk := func() {
			for _, row := range rows {
				if m.table.full() {
					m.table.reset()
				}
				stateSink = m.table.walk(m.filter, row)
			}
		}
		walk()
		if n := testing.AllocsPerRun(100, walk); n != 0 {
			t.Fatalf("cap %d: (*stateTable).walk allocates %v times per %d rows; want 0", limit, n, len(rows))
		}
		restore()
	}
}

// TestNoallocAggregatorAddFrom: crediting a person allocates nothing per
// report, replicated or summed — a report that carries the previous
// report's pointer list reuses its resolution, and its one entry is
// appended to a slice whose doublings, spread over the 100 reports, round
// to 0 per report.
func TestNoallocAggregatorAddFrom(t *testing.T) {
	table := buildPaperFilter(t, testParams()).Weights()
	r := Report{Person: 7, WeightIDs: []WeightID{0, 1, 2}}
	for _, replicated := range []func(PersonID) bool{nil, func(PersonID) bool { return true }} {
		a := NewBatchAggregator()
		a.SetReplicated(replicated)
		if err := a.AddFrom(table, r); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = a.AddFrom(table, r) }); n != 0 {
			t.Fatalf("(*Aggregator).AddFrom allocates %v times per run; want 0", n)
		}
	}
}

func TestNoallocintersectSorted(t *testing.T) {
	a := make([]WeightID, 0, 8)
	b := []WeightID{1, 2, 4, 7}
	if n := testing.AllocsPerRun(100, func() {
		a = append(a[:0], 1, 3, 4, 8)
		weightSink = intersectSorted(a, b)
	}); n != 0 {
		t.Fatalf("intersectSorted allocates %v times per run; want 0", n)
	}
}
