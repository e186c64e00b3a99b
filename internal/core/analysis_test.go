package core

import (
	"math/rand"
	"testing"

	"dimatch/internal/pattern"
)

func TestAnalyzeBasicShape(t *testing.T) {
	f := buildPaperFilter(t, testParams())
	an := Analyze(f)
	if an.BitZeroProb <= 0 || an.BitZeroProb >= 1 {
		t.Fatalf("BitZeroProb = %v", an.BitZeroProb)
	}
	if an.ValueFPProb <= 0 || an.ValueFPProb >= 1 {
		t.Fatalf("ValueFPProb = %v", an.ValueFPProb)
	}
	if an.PatternFPBoundWBF > an.PatternFPBoundBF {
		t.Fatalf("WBF bound %v exceeds BF bound %v", an.PatternFPBoundWBF, an.PatternFPBoundBF)
	}
	if an.DistinctWeights != 3 {
		t.Fatalf("DistinctWeights = %d, want 3", an.DistinctWeights)
	}
}

func TestValueLevelFPNearAnalytic(t *testing.T) {
	// The q = (1-p)^k model covers hash-collision false positives: probes of
	// values that were never inserted. Verify the measured rate on
	// guaranteed-absent values sits near the analytic estimate.
	p := Params{
		Bits:    1 << 12, // small on purpose: measurable FP pressure
		Hashes:  3,
		Samples: 4,
		Seed:    11,
	}
	const length = 8
	rng := rand.New(rand.NewSource(5))

	enc, err := NewEncoder(p, length)
	if err != nil {
		t.Fatal(err)
	}
	for id := QueryID(1); id <= 60; id++ {
		q := Query{ID: id, Locals: []pattern.Pattern{randomPattern(rng, length, 30)}}
		if q.Validate() != nil {
			continue
		}
		if err := enc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	f := enc.Filter()
	an := Analyze(f)

	// Accumulated values of the inserted patterns are <= 8*30 = 240, so
	// values beyond 10_000 are guaranteed absent: any positive probe is a
	// pure hash collision.
	const trials = 50000
	hits := 0
	for i := 0; i < trials; i++ {
		v := 10_000 + rng.Int63n(1<<40)
		if _, ok := f.probe(0, v, nil); ok {
			hits++
		}
	}
	observed := float64(hits) / trials
	if observed > an.ValueFPProb*1.5+0.005 {
		t.Fatalf("observed value FP %v far above analytic %v", observed, an.ValueFPProb)
	}
}

func TestWBFPrunesBFFalsePositives(t *testing.T) {
	// The empirical heart of Figure 4a: on a workload dense enough that the
	// plain BF false-positives through value coincidences (accumulated
	// values shared across patterns and positions), the WBF's weight check
	// prunes a large share of them and never accepts more than BF.
	p := Params{
		Bits:    1 << 14,
		Hashes:  4,
		Samples: 4,
		Seed:    11,
	}
	const length = 8
	rng := rand.New(rand.NewSource(5))

	enc, err := NewEncoder(p, length)
	if err != nil {
		t.Fatal(err)
	}
	bfEnc, err := NewBFEncoder(p, length)
	if err != nil {
		t.Fatal(err)
	}
	var inserted []pattern.Pattern
	for id := QueryID(1); id <= 60; id++ {
		q := Query{ID: id, Locals: []pattern.Pattern{randomPattern(rng, length, 12)}}
		if q.Validate() != nil {
			continue
		}
		if err := enc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		if err := bfEnc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, q.Locals[0])
	}
	m := NewMatcher(enc.Filter())
	bfM, err := NewBFMatcher(bfEnc.Filter(), p, length)
	if err != nil {
		t.Fatal(err)
	}

	const trials = 20000
	wbfFP, bfFP := 0, 0
	for i := 0; i < trials; i++ {
		cand := randomPattern(rng, length, 12)
		truePositive := false
		for _, ins := range inserted {
			if pattern.Similar(cand, ins, 0) {
				truePositive = true
				break
			}
		}
		if truePositive {
			continue
		}
		if _, ok, _ := m.Match(cand); ok {
			wbfFP++
		}
		if ok, _ := bfM.Match(cand); ok {
			bfFP++
		}
	}
	if wbfFP > bfFP {
		t.Fatalf("WBF FP count %d exceeds BF %d", wbfFP, bfFP)
	}
	if bfFP == 0 {
		t.Skip("workload produced no BF false positives; nothing to prune")
	}
	if ratio := float64(wbfFP) / float64(bfFP); ratio > 0.5 {
		t.Fatalf("WBF pruned too little: %d/%d = %.2f of BF false positives survive", wbfFP, bfFP, ratio)
	}
}
