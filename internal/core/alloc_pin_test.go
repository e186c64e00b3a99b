// AllocsPerRun pins: (*Matcher).Match, (*Matcher).sampledAccumulate,
// (*Filter).probe and intersectSorted — the per-resident station probe path —
// held to 0 allocs/op after one warm-up call grows the matcher's scratch
// buffers.
package core

import (
	"testing"

	"dimatch/internal/pattern"
)

var (
	matchSink  []WeightID
	boolSink   bool
	valsSink   []int64
	weightSink []WeightID
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
	if n := testing.AllocsPerRun(100, func() {
		matchSink, boolSink, _ = m.Match(p)
		matchSink, boolSink, _ = m.Match(miss)
	}); n != 0 {
		t.Fatalf("(*Matcher).Match allocates %v times per run; want 0", n)
	}
}

func TestNoallocMatchersampledAccumulate(t *testing.T) {
	m, p := warmMatcher(t)
	if n := testing.AllocsPerRun(100, func() {
		valsSink = m.sampledAccumulate(p)
	}); n != 0 {
		t.Fatalf("(*Matcher).sampledAccumulate allocates %v times per run; want 0", n)
	}
}

func TestNoallocFilterprobe(t *testing.T) {
	m, p := warmMatcher(t)
	vals := m.sampledAccumulate(p)
	scratch := make([]WeightID, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		weightSink, boolSink = m.filter.probe(0, vals[0], scratch[:0])
	}); n != 0 {
		t.Fatalf("(*Filter).probe allocates %v times per run; want 0", n)
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
