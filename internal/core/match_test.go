package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dimatch/internal/pattern"
)

// encodeQueries builds a WBF over the given queries with shared parameters.
func encodeQueries(t *testing.T, p Params, length int, queries ...Query) *Filter {
	t.Helper()
	enc, err := NewEncoder(p, length)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	return enc.Filter()
}

func TestMatchPaperScenario(t *testing.T) {
	// Section IV-B: global {3,4,5}, locals {1,2,3} and {2,2,2}. Two persons
	// at a base station: one with {3,4,5} (global-matched) and one with
	// {1,2,3} (local-matched). Both must match at different weight levels.
	p := testParams()
	f := encodeQueries(t, p, 3, Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}, {2, 2, 2}}})
	m := NewMatcher(f)

	ids, ok, err := m.Match(pattern.Pattern{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("global pattern {3,4,5} did not match")
	}
	w := mustSingleWeight(t, f, ids)
	if w.Numerator != 12 || w.Mask != 0b11 {
		t.Fatalf("global match weight = %+v, want full combination", w)
	}

	ids, ok, err = m.Match(pattern.Pattern{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("local pattern {1,2,3} did not match")
	}
	w = mustSingleWeight(t, f, ids)
	if w.Numerator != 6 || w.Mask != 0b01 {
		t.Fatalf("local match weight = %+v, want first local", w)
	}

	// An unrelated pattern must not match.
	if _, ok, err := m.Match(pattern.Pattern{9, 9, 9}); err != nil || ok {
		t.Fatalf("unrelated pattern matched (ok=%v, err=%v)", ok, err)
	}
}

func mustSingleWeight(t *testing.T, f *Filter, ids []WeightID) WeightEntry {
	t.Helper()
	if len(ids) != 1 {
		t.Fatalf("expected a single surviving weight, got %d", len(ids))
	}
	w, err := f.Weight(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMatchRejectsCrossPatternMixture(t *testing.T) {
	// Section IV-B's WBF motivation: with patterns {1,2,3} and {2,4,5} in a
	// plain BF, the mixture {1,4,5} false-positives; the WBF rejects it
	// because the two source patterns carry different weights.
	//
	// The patterns are encoded as two single-local queries so their weights
	// differ, and position salting is enabled to isolate the weight check
	// from accidental single-value coincidences in accumulated space.
	p := testParams()
	p.PositionSalted = true
	f := encodeQueries(t, p, 3,
		Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}},
		Query{ID: 2, Locals: []pattern.Pattern{{2, 4, 5}}},
	)
	m := NewMatcher(f)

	for _, genuine := range []pattern.Pattern{{1, 2, 3}, {2, 4, 5}} {
		if _, ok, err := m.Match(genuine); err != nil || !ok {
			t.Fatalf("genuine pattern %v rejected (ok=%v, err=%v)", genuine, ok, err)
		}
	}
	if _, ok, _ := m.Match(pattern.Pattern{1, 4, 5}); ok {
		t.Fatal("cross-pattern mixture {1,4,5} accepted by WBF")
	}

	// The plain BF baseline accepts exactly this mixture, reproducing the
	// paper's example. Accumulated {1,5,10}: 1 is sample 0 of query 1 and
	// {5,10} are samples 1,2 of query 2's accumulated {2,6,11}? No — the
	// mixture must mix RAW values as in the paper, so compare via the BF
	// pipeline on raw-value positions using position salting, where sample
	// j only matches values inserted at j.
	bfEnc, err := NewBFEncoder(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}},
		{ID: 2, Locals: []pattern.Pattern{{2, 4, 5}}},
	} {
		if err := bfEnc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	bfM, err := NewBFMatcher(bfEnc.Filter(), p, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, genuine := range []pattern.Pattern{{1, 2, 3}, {2, 4, 5}} {
		ok, err := bfM.Match(genuine)
		if err != nil || !ok {
			t.Fatalf("BF rejected genuine pattern %v", genuine)
		}
	}
}

func TestMatchDistinguishesOrderings(t *testing.T) {
	// {1,2,3} vs {3,2,1}: same value multiset, different series. The
	// accumulation transform must keep them apart (Section IV-A).
	p := testParams()
	f := encodeQueries(t, p, 3, Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}})
	m := NewMatcher(f)
	if _, ok, _ := m.Match(pattern.Pattern{1, 2, 3}); !ok {
		t.Fatal("inserted ordering rejected")
	}
	if _, ok, _ := m.Match(pattern.Pattern{3, 2, 1}); ok {
		t.Fatal("reversed ordering {3,2,1} accepted")
	}
}

func TestMatchEpsilonTolerance(t *testing.T) {
	p := testParams()
	p.Epsilon = 1
	f := encodeQueries(t, p, 3, Query{ID: 1, Locals: []pattern.Pattern{{5, 5, 5}}})
	m := NewMatcher(f)

	tests := []struct {
		name string
		give pattern.Pattern
		want bool
	}{
		{name: "exact", give: pattern.Pattern{5, 5, 5}, want: true},
		{name: "within eps everywhere", give: pattern.Pattern{4, 6, 5}, want: true},
		{name: "at eps boundary", give: pattern.Pattern{6, 6, 6}, want: true},
		{name: "one interval at 2eps", give: pattern.Pattern{7, 5, 5}, want: false},
		{name: "far off", give: pattern.Pattern{1, 1, 1}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, ok, err := m.Match(tt.give)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tt.want {
				t.Fatalf("Match(%v) = %v, want %v", tt.give, ok, tt.want)
			}
		})
	}
}

func TestMatchLengthMismatch(t *testing.T) {
	f := encodeQueries(t, testParams(), 3, Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}})
	if _, _, err := NewMatcher(f).Match(pattern.Pattern{1, 2}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	bfEnc, err := NewBFEncoder(testParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	bfM, err := NewBFMatcher(bfEnc.Filter(), testParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bfM.Match(pattern.Pattern{1, 2}); err == nil {
		t.Fatal("expected BF length-mismatch error")
	}
}

func TestPropertyNoFalseNegatives(t *testing.T) {
	// Invariant: any pattern within per-interval ε of an encoded combination
	// matches. This is the WBF's no-false-negative guarantee (see Band).
	p := testParams()
	p.Bits = 1 << 16
	p.Epsilon = 2
	p.Samples = 4

	f := func(rawA, rawB [6]uint8, noise [6]int8) bool {
		localA := make(pattern.Pattern, 6)
		localB := make(pattern.Pattern, 6)
		for i := 0; i < 6; i++ {
			localA[i] = int64(rawA[i] % 20)
			localB[i] = int64(rawB[i] % 20)
		}
		q := Query{ID: 1, Locals: []pattern.Pattern{localA, localB}}
		if q.Validate() != nil {
			return true // skip degenerate all-zero draws
		}
		enc, err := NewEncoder(p, 6)
		if err != nil {
			return false
		}
		if err := enc.AddQuery(q); err != nil {
			return false
		}
		m := NewMatcher(enc.Filter())

		// Perturb the global pattern within ±ε per interval (clamped >= 0).
		global, err := q.Global()
		if err != nil {
			return false
		}
		perturbed := global.Clone()
		for i := range perturbed {
			d := int64(noise[i]) % (p.Epsilon + 1)
			perturbed[i] += d
			if perturbed[i] < 0 {
				perturbed[i] = 0
			}
		}
		if !pattern.Similar(global, perturbed, p.Epsilon) {
			return true
		}
		_, ok, err := m.Match(perturbed)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWBFMatchesAreBFMatches(t *testing.T) {
	// Weights only prune: any pattern the WBF accepts, the identically
	// parameterized BF accepts too.
	p := testParams()
	p.Samples = 3

	enc, err := NewEncoder(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	bfEnc, err := NewBFEncoder(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for id := QueryID(1); id <= 20; id++ {
		locals := []pattern.Pattern{randomPattern(rng, 4, 15), randomPattern(rng, 4, 15)}
		q := Query{ID: id, Locals: locals}
		if q.Validate() != nil {
			continue
		}
		if err := enc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		if err := bfEnc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMatcher(enc.Filter())
	bfM, err := NewBFMatcher(bfEnc.Filter(), p, 4)
	if err != nil {
		t.Fatal(err)
	}
	wbfAccepts, bfAccepts := 0, 0
	for trial := 0; trial < 3000; trial++ {
		cand := randomPattern(rng, 4, 40)
		_, wbfOK, err := m.Match(cand)
		if err != nil {
			t.Fatal(err)
		}
		bfOK, err := bfM.Match(cand)
		if err != nil {
			t.Fatal(err)
		}
		if wbfOK && !bfOK {
			t.Fatalf("WBF accepted %v but BF rejected it", cand)
		}
		if wbfOK {
			wbfAccepts++
		}
		if bfOK {
			bfAccepts++
		}
	}
	if wbfAccepts > bfAccepts {
		t.Fatalf("WBF accepted more (%d) than BF (%d)", wbfAccepts, bfAccepts)
	}
}

func randomPattern(rng *rand.Rand, length int, maxVal int64) pattern.Pattern {
	p := make(pattern.Pattern, length)
	for i := range p {
		p[i] = rng.Int63n(maxVal + 1)
	}
	return p
}

func TestEncoderErrors(t *testing.T) {
	p := testParams()
	enc, err := NewEncoder(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}}
	if err := enc.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	if err := enc.AddQuery(q); err == nil {
		t.Fatal("duplicate query id accepted")
	}
	if err := enc.AddQuery(Query{ID: 2, Locals: []pattern.Pattern{{1, 2}}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := enc.AddQuery(Query{ID: 3}); err == nil {
		t.Fatal("invalid query accepted")
	}
	f := enc.Filter()
	if err := enc.AddQuery(Query{ID: 4, Locals: []pattern.Pattern{{1, 2, 3}}}); err == nil {
		t.Fatal("sealed encoder accepted a query")
	}
	// Only the one accepted single-local query left a weight behind.
	if w := f.Weights(); len(w) != 1 || w[0].Query != 1 {
		t.Fatalf("weight table %+v, want query 1's single combination", w)
	}
}

func TestEstimateInsertions(t *testing.T) {
	p := testParams()
	p.Samples = 3
	p.Epsilon = 0
	q := Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}, {2, 2, 2}}}
	// 3 combinations × 3 samples × band 1 = 9.
	n, err := EstimateInsertions(p, 3, []Query{q})
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("EstimateInsertions = %d, want 9", n)
	}
	// With ε=1 scaled: bands 2·1·(g+1)+1 for g=0,1,2 → 3+5+7 = 15 per
	// combination, 45 total.
	p.Epsilon = 1
	n, err = EstimateInsertions(p, 3, []Query{q})
	if err != nil {
		t.Fatal(err)
	}
	if n != 45 {
		t.Fatalf("EstimateInsertions = %d, want 45", n)
	}
	// Actual insertions match the estimate (no zero clipping here since all
	// accumulated values are >= 1 ... except value-1 bands reaching below 0):
	// the encoder hashes every value of every band it walks.
	enc, err := NewEncoder(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	err = q.EachCombination(func(_ pattern.Subset, _ int64, combined pattern.Pattern) error {
		return enc.forEachBand(combined, func(_ int, lo, hi int64) { got += uint64(max(hi-lo+1, 0)) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("actual insertions %d != estimate %d", got, n)
	}
	if _, err := EstimateInsertions(p, 3, []Query{{ID: 2}}); err == nil {
		t.Fatal("expected error for query without locals")
	}
}

func TestSizedParams(t *testing.T) {
	base := Params{Hashes: 1, Samples: 4, Epsilon: 1, Seed: 3}
	qs := []Query{{ID: 1, Locals: []pattern.Pattern{{1, 2, 3, 4}, {2, 2, 2, 2}}}}
	p, err := SizedParams(base, 4, qs, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("sized params invalid: %v", err)
	}
	if p.Samples != 4 || p.Epsilon != 1 || p.Seed != 3 {
		t.Fatal("SizedParams clobbered pipeline knobs")
	}
	// One hash and m = ⌈n/f⌉: EstimateInsertions gives 3 combinations × 4
	// samples × bands of 3, 5, 7 and 9 values.
	if n := uint64(3 * (3 + 5 + 7 + 9)); p.Hashes != 1 || p.Bits != n*100 {
		t.Fatalf("SizedParams = (m %d, k %d), want (%d, 1)", p.Bits, p.Hashes, n*100)
	}
	// A target outside (0, 1) means the default; a tiny one clamps m.
	for _, tt := range []struct {
		fp   float64
		bits uint64
	}{{0, 7200}, {1, 7200}, {-3, 7200}, {math.NaN(), 7200}, {1e-12, MaxBits}} {
		p, err := SizedParams(base, 4, qs, tt.fp)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil || p.Bits != tt.bits || p.Hashes != 1 {
			t.Errorf("target %v: sized (m %d, k %d), err %v; want (%d, 1)", tt.fp, p.Bits, p.Hashes, err, tt.bits)
		}
	}
}

func TestBFEncoderValidation(t *testing.T) {
	enc, err := NewBFEncoder(testParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.AddQuery(Query{ID: 1}); err == nil {
		t.Fatal("invalid query accepted")
	}
	if err := enc.AddQuery(Query{ID: 1, Locals: []pattern.Pattern{{1, 2}}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewBFMatcher(enc.Filter(), Params{}, 3); err == nil {
		t.Fatal("invalid params accepted by BF matcher")
	}
	if _, err := NewBFMatcher(enc.Filter(), testParams(), 0); err == nil {
		t.Fatal("zero length accepted by BF matcher")
	}
}

func TestMatcherReuseAcrossCalls(t *testing.T) {
	// The matcher reuses scratch buffers; consecutive calls must not leak
	// state from one pattern to the next.
	p := testParams()
	f := encodeQueries(t, p, 3,
		Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}},
		Query{ID: 2, Locals: []pattern.Pattern{{4, 4, 4}}},
	)
	m := NewMatcher(f)
	for trial := 0; trial < 5; trial++ {
		ids, ok, err := m.Match(pattern.Pattern{1, 2, 3})
		if err != nil || !ok {
			t.Fatal("pattern 1 rejected")
		}
		w := mustSingleWeight(t, f, ids)
		if w.Query != 1 {
			t.Fatalf("trial %d: weight resolved to query %d", trial, w.Query)
		}
		ids, ok, err = m.Match(pattern.Pattern{4, 4, 4})
		if err != nil || !ok {
			t.Fatal("pattern 2 rejected")
		}
		w = mustSingleWeight(t, f, ids)
		if w.Query != 2 {
			t.Fatalf("trial %d: weight resolved to query %d", trial, w.Query)
		}
		if _, ok, _ = m.Match(pattern.Pattern{7, 0, 9}); ok {
			t.Fatal("junk pattern accepted")
		}
	}
}
