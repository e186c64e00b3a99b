package index

import (
	"math/rand"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// randPattern builds a deterministic random pattern of the given length.
func randPattern(rng *rand.Rand, length int, maxVal int64) pattern.Pattern {
	p := make(pattern.Pattern, length)
	for i := range p {
		p[i] = rng.Int63n(maxVal + 1)
	}
	return p
}

// TestSummaryNeverPrunesBandMatches is the soundness pin: any resident
// within the scaled ε band of a query combination at every position — in
// particular every true Eq. 2 match — must be admitted by the summary, for
// every sample count a search could use. At length 24 the summary covers
// only the 12 default sample positions, so probes of 24 or 40 samples band
// positions it holds no cell for.
func TestSummaryNeverPrunesBandMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const eps = 2
	for trial := 0; trial < 400; trial++ {
		length := 12 + 12*(trial%2)
		target := randPattern(rng, length, 20)
		// Perturb within the per-interval ε: still a true Eq. 2 match.
		resident := target.Clone()
		for i := range resident {
			resident[i] += rng.Int63n(2*eps+1) - eps
			if resident[i] < 0 {
				resident[i] = 0
			}
		}
		if resident.Sum() == 0 || target.Sum() == 0 {
			continue
		}
		s, err := Build(length, []pattern.Pattern{resident})
		if err != nil {
			t.Fatal(err)
		}
		for _, samples := range []int{1, 3, 5, 12, 24, 40} {
			probe, err := NewProbe(core.Query{ID: 1, Locals: []pattern.Pattern{target}}, samples, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Admits(probe) {
				t.Fatalf("trial %d samples %d: summary pruned a within-band resident\nquery    %v\nresident %v",
					trial, samples, target, resident)
			}
		}
	}
}

// TestSummaryAdmitsMultiLocalCombination pins the combination enumeration:
// a station holding only a sub-combination of a multi-local query (one
// piece of a split person) must still be admitted — it will report that
// combination's weight.
func TestSummaryAdmitsMultiLocalCombination(t *testing.T) {
	locals := []pattern.Pattern{{1, 2, 3}, {2, 2, 2}}
	q := core.Query{ID: 1, Locals: locals}
	// The station holds only the first local piece.
	s, err := Build(3, []pattern.Pattern{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewProbe(q, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Admits(probe) {
		t.Fatal("summary pruned a station holding a query sub-combination")
	}
	// A station holding something unrelated is pruned.
	other, err := Build(3, []pattern.Pattern{{9, 0, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if other.Admits(probe) {
		t.Fatal("summary admitted an unrelated resident at ε=0")
	}
}

// TestFalseRouteRateBound pins the advertised sizing: with stores at the
// default false-positive target, the fraction of stations falsely admitted
// for queries that match none of their residents stays within a small
// multiple of the per-probe target. The workload is seeded, so the measured
// rate is deterministic.
func TestFalseRouteRateBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const (
		length    = 12
		stations  = 40
		residents = 50
		queries   = 50
	)
	sums := make([]*Summary, stations)
	for i := range sums {
		locals := make([]pattern.Pattern, residents)
		for j := range locals {
			// Resident values in [0, 30]: disjoint from the query range below,
			// so every admit is a false route.
			locals[j] = randPattern(rng, length, 30)
			locals[j][0]++ // never all-zero
		}
		s, err := Build(length, locals)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = s
	}
	falseAdmits, probesRun := 0, 0
	for qi := 0; qi < queries; qi++ {
		// Query values in [1000, 1030]: accumulated cells are far outside
		// every resident band, so the truth is "no station matches".
		q := randPattern(rng, length, 30)
		for i := range q {
			q[i] += 1000
		}
		probe, err := NewProbe(core.Query{ID: core.QueryID(qi + 1), Locals: []pattern.Pattern{q}}, core.DefaultSamples, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !probe.Selective() {
			t.Fatal("probe unexpectedly over budget")
		}
		for _, s := range sums {
			probesRun++
			if s.Admits(probe) {
				falseAdmits++
			}
		}
	}
	rate := float64(falseAdmits) / float64(probesRun)
	// Admission needs a false hit at EVERY sampled position of some
	// combination, so the station-level rate sits far below the per-probe
	// 1% target; 2% leaves headroom without letting the bound rot.
	if rate > 0.02 {
		t.Fatalf("false-route rate %.4f exceeds the 0.02 bound (%d/%d)", rate, falseAdmits, probesRun)
	}
}

// TestStaleAfterEvictOnlyWastesProbes pins the eviction half of the
// staleness contract: a summary that still contains an evicted resident's
// cells admits the station (a wasted probe), it never prunes differently —
// pruning decisions are monotone in the summarized set.
func TestStaleAfterEvictOnlyWastesProbes(t *testing.T) {
	kept := pattern.Pattern{5, 5, 5, 5}
	gone := pattern.Pattern{1, 0, 2, 1}
	stale, err := Build(4, []pattern.Pattern{kept, gone})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(4, []pattern.Pattern{kept})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []pattern.Pattern{kept, gone, {9, 9, 9, 9}} {
		probe, err := NewProbe(core.Query{ID: 1, Locals: []pattern.Pattern{q}}, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Admits(probe) && !stale.Admits(probe) {
			t.Fatalf("stale summary pruned a station the fresh one admits (query %v)", q)
		}
	}
	// The evicted resident's cells still admit on the stale copy: the
	// documented wasted probe.
	probe, err := NewProbe(core.Query{ID: 1, Locals: []pattern.Pattern{gone}}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !stale.Admits(probe) {
		t.Fatal("stale summary should still admit the evicted resident's band")
	}
}

// TestWireRoundtripParts pins FromParts against the accessors a wire codec
// uses.
func TestWireRoundtripParts(t *testing.T) {
	s, err := Build(5, []pattern.Pattern{{1, 2, 3, 4, 5}, {2, 0, 0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromParts(s.Length(), s.Seed(), append([]uint64(nil), s.Words()...), s.Bits(), s.Hashes(), s.Inserted(), s.Residents())
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewProbe(core.Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3, 4, 5}}}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Admits(probe) {
		t.Fatal("reconstructed summary lost its cells")
	}
	if got.Residents() != 2 || got.SizeBytes() != s.SizeBytes() {
		t.Fatalf("reconstructed metadata %d residents / %d B, want %d / %d",
			got.Residents(), got.SizeBytes(), s.Residents(), s.SizeBytes())
	}
}

// TestProbeBudget pins the unselective fallback: a band volume beyond
// MaxProbeValues must not fail, it must stop pruning.
func TestProbeBudget(t *testing.T) {
	long := make(pattern.Pattern, 64)
	for i := range long {
		long[i] = 1
	}
	probe, err := NewProbe(core.Query{ID: 1, Locals: []pattern.Pattern{long}}, 64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Selective() {
		t.Fatal("probe over MaxProbeValues still claims to be selective")
	}
	s, err := Build(64, []pattern.Pattern(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Admits(probe) {
		t.Fatal("unselective probe must admit everywhere")
	}
}

// TestEmptyStationIsPruned: a station with no residents can never report;
// its summary admits nothing selective.
func TestEmptyStationIsPruned(t *testing.T) {
	s, err := Build(3, []pattern.Pattern(nil))
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewProbe(core.Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Admits(probe) {
		t.Fatal("empty summary admitted a query")
	}
}
