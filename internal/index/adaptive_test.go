package index

import (
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

func adaptiveFixturePlan(length int) *Plan {
	groups := make([]PlanGroup, length)
	for g := range groups {
		groups[g] = PlanGroup{
			Weight:  uint32(g + 1),
			Hashes:  uint8(3 + g%3),
			Quantum: int64(1) << uint(g%4),
		}
	}
	return &Plan{Epoch: 7, Seed: 41, Length: length, Groups: groups}
}

func adaptiveFixtureLocals(length, n int) []pattern.Pattern {
	locals := make([]pattern.Pattern, n)
	for i := range locals {
		p := make(pattern.Pattern, length)
		for j := range p {
			p[j] = int64((i*131 + j*17) % 997)
		}
		locals[i] = p
	}
	return locals
}

func TestPlanValidate(t *testing.T) {
	good := adaptiveFixturePlan(4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(p *Plan){
		"zero epoch":        func(p *Plan) { p.Epoch = 0 },
		"zero length":       func(p *Plan) { p.Length = 0; p.Groups = nil },
		"group mismatch":    func(p *Plan) { p.Groups = p.Groups[:2] },
		"zero weight":       func(p *Plan) { p.Groups[1].Weight = 0 },
		"zero hashes":       func(p *Plan) { p.Groups[2].Hashes = 0 },
		"oversized hashes":  func(p *Plan) { p.Groups[0].Hashes = MaxPlanHashes + 1 },
		"zero quantum":      func(p *Plan) { p.Groups[3].Quantum = 0 },
		"oversized quantum": func(p *Plan) { p.Groups[3].Quantum = MaxPlanQuantum + 1 },
		"oversized weight":  func(p *Plan) { p.Groups[0].Weight = MaxPlanWeight + 1 },
		"too many groups":   func(p *Plan) { p.Length = MaxPlanGroups + 1 },
	}
	for name, mutate := range cases {
		p := good.Clone()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestAdaptiveEqualMemory pins the ISSUE's equal-memory constraint: the
// adaptive digest partitions exactly the bits the static digest would
// allocate for the same station, regardless of how the weights skew.
func TestAdaptiveEqualMemory(t *testing.T) {
	length := 6
	locals := adaptiveFixtureLocals(length, 20)
	static, err := Build(length, locals)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := BuildAdaptive(adaptiveFixturePlan(length), length, locals)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Bits() != static.Bits() {
		t.Fatalf("adaptive spends %d bits, static %d — must be equal", adaptive.Bits(), static.Bits())
	}
	if adaptive.SizeBytes() != static.SizeBytes() {
		t.Fatalf("adaptive SizeBytes %d, static %d", adaptive.SizeBytes(), static.SizeBytes())
	}
}

// TestAdaptiveNoFalseNegatives is the recall side of the digest contract:
// every resident's own pattern must be admitted at every sample count and
// tolerance, because a routing digest may only over-admit, never miss.
func TestAdaptiveNoFalseNegatives(t *testing.T) {
	length := 5
	locals := adaptiveFixtureLocals(length, 24)
	sum, err := BuildAdaptive(adaptiveFixturePlan(length), length, locals)
	if err != nil {
		t.Fatal(err)
	}
	for qi, local := range locals {
		for _, samples := range []int{2, 3, 5} {
			for _, eps := range []int64{0, 1, 3} {
				q := core.Query{ID: core.QueryID(qi + 1), Locals: []pattern.Pattern{local}}
				probe, err := NewProbe(q, samples, eps)
				if err != nil {
					t.Fatal(err)
				}
				if !sum.Admits(probe) {
					t.Fatalf("resident %v missed at samples=%d eps=%d", local, samples, eps)
				}
			}
		}
	}
}

// TestAdaptiveQuantizationConservative pins the superset property the
// soundness argument rests on: for any band [lo,hi] and any quantum, the
// probed quantized range covers every value bucket a resident inside the
// band could have inserted.
func TestAdaptiveQuantizationConservative(t *testing.T) {
	for _, q := range []int64{1, 2, 4, 7, 16} {
		for lo := int64(-40); lo <= 40; lo++ {
			for hi := lo; hi <= lo+5; hi++ {
				for v := lo; v <= hi; v++ {
					if fd := floorDiv(v, q); fd < floorDiv(lo, q) || fd > floorDiv(hi, q) {
						t.Fatalf("q=%d: value %d bucket %d escapes band [%d,%d] buckets [%d,%d]",
							q, v, fd, lo, hi, floorDiv(lo, q), floorDiv(hi, q))
					}
				}
			}
		}
	}
}

// TestAdaptiveNotUnionable pins the union-safety property: adaptive digests
// refuse to merge (with static peers and with each other), so no union ever
// aggregates mixed-parameter bit arrays.
func TestAdaptiveNotUnionable(t *testing.T) {
	length := 4
	locals := adaptiveFixtureLocals(length, 16)
	static, err := Build(length, locals)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := BuildAdaptive(adaptiveFixturePlan(length), length, locals)
	if err != nil {
		t.Fatal(err)
	}
	if static.Unionable(adaptive) || adaptive.Unionable(static) {
		t.Fatal("adaptive digest claims unionability with a static one")
	}
	other, err := BuildAdaptive(adaptiveFixturePlan(length), length, locals[:8])
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Unionable(other) {
		t.Fatal("two adaptive digests claim unionability")
	}
	if static.Unionable(static.Clone()) != true {
		t.Fatal("static unionability regressed")
	}
}

// TestAdaptiveCloneAndAdd: Clone must deep-copy the bit array (mutating the
// clone leaves the original alone) while sharing the immutable geometry.
func TestAdaptiveCloneAndAdd(t *testing.T) {
	length := 4
	locals := adaptiveFixtureLocals(length, 16)
	sum, err := BuildAdaptive(adaptiveFixturePlan(length), length, locals)
	if err != nil {
		t.Fatal(err)
	}
	clone := sum.Clone()
	extra := pattern.Pattern{901, 902, 903, 904}
	if err := clone.Add(extra); err != nil {
		t.Fatal(err)
	}
	if clone.Inserted() <= sum.Inserted() {
		t.Fatal("Add did not advance the clone's insertion count")
	}
	probe, err := NewProbe(core.Query{ID: 1, Locals: []pattern.Pattern{extra}}, length, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !clone.Admits(probe) {
		t.Fatal("clone does not admit the added resident")
	}
	if sum.Inserted() != uint64(16*length) {
		t.Fatalf("original mutated: inserted %d", sum.Inserted())
	}
}

// TestAdaptiveFromPartsRejects covers the codec-facing constructor: geometry
// and words that disagree must error rather than build an unsound digest.
func TestAdaptiveFromPartsRejects(t *testing.T) {
	length := 3
	locals := adaptiveFixtureLocals(length, 12)
	sum, err := BuildAdaptive(adaptiveFixturePlan(length), length, locals)
	if err != nil {
		t.Fatal(err)
	}
	geoms := sum.Geometry()
	words := sum.Words()
	if _, err := AdaptiveFromParts(length, sum.Seed(), sum.AdaptiveEpoch(), geoms, words, sum.Inserted(), 12); err != nil {
		t.Fatalf("faithful reconstruction rejected: %v", err)
	}
	if _, err := AdaptiveFromParts(length, sum.Seed(), sum.AdaptiveEpoch(), geoms[:2], words, sum.Inserted(), 12); err == nil {
		t.Fatal("geometry/length mismatch accepted")
	}
	if _, err := AdaptiveFromParts(length, sum.Seed(), sum.AdaptiveEpoch(), geoms, words[:len(words)-1], sum.Inserted(), 12); err == nil {
		t.Fatal("word/geometry size mismatch accepted")
	}
	if _, err := AdaptiveFromParts(length, sum.Seed(), 0, geoms, words, sum.Inserted(), 12); err == nil {
		t.Fatal("zero epoch accepted")
	}
	bad := append([]GroupGeom(nil), geoms...)
	bad[0].Bits = 63 // not word-aligned
	if _, err := AdaptiveFromParts(length, sum.Seed(), sum.AdaptiveEpoch(), bad, words, sum.Inserted(), 12); err == nil {
		t.Fatal("unaligned group accepted")
	}
}

// TestPartitionBudgetExact: weights resolve to word-aligned regions that sum
// exactly to the budget, with every group keeping at least one word.
func TestPartitionBudgetExact(t *testing.T) {
	p := &Plan{Epoch: 1, Seed: 1, Length: 5, Groups: []PlanGroup{
		{Weight: 1, Hashes: 2, Quantum: 1},
		{Weight: 1000, Hashes: 8, Quantum: 1},
		{Weight: 3, Hashes: 3, Quantum: 2},
		{Weight: 7, Hashes: 4, Quantum: 4},
		{Weight: 11, Hashes: 5, Quantum: 8},
	}}
	for _, budget := range []uint64{5 * 64, 8 * 64, 1 << 12, 1 << 16} {
		geoms, err := PartitionBudget(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		var total uint64
		for g, geom := range geoms {
			if geom.Bits == 0 || geom.Bits%64 != 0 {
				t.Fatalf("budget %d: group %d got %d bits", budget, g, geom.Bits)
			}
			total += geom.Bits
		}
		if total != budget {
			t.Fatalf("budget %d: partition sums to %d", budget, total)
		}
	}
	if _, err := PartitionBudget(p, 4*64); err == nil {
		t.Fatal("budget below one word per group accepted")
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ v, q, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {-1, 4, -1}, {-4, 4, -1}, {-5, 4, -2}, {0, 3, 0}, {5, 5, 1},
	}
	for _, c := range cases {
		if got := floorDiv(c.v, c.q); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.v, c.q, got, c.want)
		}
	}
}
