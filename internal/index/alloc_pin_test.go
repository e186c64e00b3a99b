// AllocsPerRun pins: (*Summary).Admits and (*Summary).contains, the
// coordinator's per-station routing decision, held to 0 allocs/op.
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

func TestNoallocSummarycontainsAdaptive(t *testing.T) {
	locals := make([]pattern.Pattern, 0, 8)
	for i := 0; i < 8; i++ {
		base := int64(i*19 + 3)
		locals = append(locals, pattern.Pattern{base, base + 40, base * 3})
	}
	plan := &Plan{
		Epoch:  1,
		Seed:   9,
		Length: 3,
		Groups: []PlanGroup{
			{Weight: 1, Hashes: 3, Quantum: 1},
			{Weight: 2, Hashes: 4, Quantum: 2},
			{Weight: 1, Hashes: 3, Quantum: 4},
		},
	}
	s, err := BuildAdaptive(plan, 3, locals)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		admitSink = s.containsAdaptive(1, 4)
	}); n != 0 {
		t.Fatalf("(*Summary).containsAdaptive allocates %v times per run; want 0", n)
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
