// AllocsPerRun pins: (*Summary).Admits and (*Summary).contains, the
// coordinator's per-station routing decision, and (*Summary).Add, the
// station's digest build and the coordinator's in-place delta update (one
// row, and one flush-sized batch into a station-sized digest), held to 0
// allocs/op.
package index

import (
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
	cells := []int32{4, 0, 9} // a station's row, as Build adds it
	if n := testing.AllocsPerRun(100, func() {
		if err := s.Add(row); err != nil {
			panic(err)
		}
		if err := addRow(s, cells); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Fatalf("(*Summary).Add allocates %v times per run; want 0", n)
	}
}

// TestNoallocSummaryAddBatch pins the coordinator's delta update at its
// real shape: one stream flush's rows added in place to a 25 000-resident
// digest allocate nothing.
func TestNoallocSummaryAddBatch(t *testing.T) {
	s, batch := addBatchFixture(t)
	if n := testing.AllocsPerRun(20, func() {
		for _, l := range batch {
			if err := s.Add(l); err != nil {
				panic(err)
			}
		}
	}); n != 0 {
		t.Fatalf("adding a %d-row batch allocates %v times per run; want 0", len(batch), n)
	}
}
