// AllocsPerRun pins: (*Summary).Admits and (*Summary).contains, the
// coordinator's per-station routing decision, and (*Summary).Add, the
// station's digest build and the coordinator's delta update, held to 0
// allocs/op; (*Summary).Clone held to one word array of bytes per op.
package index

import (
	"runtime"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

var admitSink bool

func buildPinFixture(t *testing.T) (*Summary, Probe) {
	t.Helper()
	s, err := Build(3, []pattern.Pattern{{1, 2, 3}, {2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}}
	p, err := NewProbe(q, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

func TestNoallocSummaryAdmits(t *testing.T) {
	s, p := buildPinFixture(t)
	if n := testing.AllocsPerRun(100, func() {
		admitSink = s.Admits(p)
	}); n != 0 {
		t.Fatalf("(*Summary).Admits allocates %v times per run; want 0", n)
	}
}

func TestNoallocSummarycontains(t *testing.T) {
	s, _ := buildPinFixture(t)
	if n := testing.AllocsPerRun(100, func() {
		admitSink = s.contains(0, 1)
	}); n != 0 {
		t.Fatalf("(*Summary).contains allocates %v times per run; want 0", n)
	}
}

func TestNoallocSummarybandAdmit(t *testing.T) {
	s, _ := buildPinFixture(t)
	if n := testing.AllocsPerRun(100, func() {
		admitSink = s.bandAdmit(0, 0, 3)
	}); n != 0 {
		t.Fatalf("(*Summary).bandAdmit allocates %v times per run; want 0", n)
	}
}

func TestNoallocSummaryAdd(t *testing.T) {
	s, _ := buildPinFixture(t)
	row := pattern.Pattern{4, 0, 9}
	if n := testing.AllocsPerRun(100, func() {
		if err := s.Add(row); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Fatalf("(*Summary).Add allocates %v times per run; want 0", n)
	}
}

var cloneSink *Summary

// TestSummaryCloneCopiesWordsOnce pins Clone's cost at one copy of the
// filter's words: the bytes allocated per clone of a station-sized digest
// may exceed the word array only by the small headers around it (a few
// hundred bytes, more under the race detector), never by a second copy.
func TestSummaryCloneCopiesWordsOnce(t *testing.T) {
	s, err := New(24, 25000, 0, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	words := uint64(8 * len(s.Words()))
	const runs = 16
	cloneSink = s.Clone() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cloneSink = s.Clone()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp < words || perOp > words+4096 {
		t.Fatalf("(*Summary).Clone allocates %d B per op; want one %d B word array (+ at most 4 KiB of headers)", perOp, words)
	}
}
