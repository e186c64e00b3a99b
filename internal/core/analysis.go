package core

import "math"

// Analysis quantifies the false-positive behaviour the paper discusses in
// Sections II-B and V ("the upper bound tightness of WBF"): a plain Bloom
// filter only guarantees a false-positive lower bound, while the WBF's
// weight-consistency check multiplies in an additional pruning factor.
//
// Model, using the paper's notation (Table I): with m bits, k hashes and n
// inserted values, the probability a probed absent value appears present is
// the standard q = (1 - p)^k with p = (1-1/m)^(kn). A spurious pattern whose
// sampled values are all absent from the filter must pass b independent
// sampled points, so
//
//	FP_BF(pattern) <= q^b.
//
// The WBF additionally requires one weight shared by all b points. With W
// distinct weights spread uniformly over slot lists, the chance that b
// accidental hits agree on some weight is at most W^(1-b) of the BF rate
// (each extra point must re-draw the same weight), giving
//
//	FP_WBF(pattern) <= q^b * W^(1-b).
//
// These bounds cover hash-collision false positives only: patterns whose
// sampled values genuinely occur in the filter (inserted by a different
// pattern, or by the same pattern at a different position) pass the plain
// Bloom test legitimately — the paper's {1,4,5} mixture example. The BF
// baseline has no defence against such value coincidences, which is why its
// precision collapses as patterns accumulate (Figure 4a); the WBF prunes
// them with the weight-consistency check. Empirically, WBF pattern false
// positives are therefore far below BF's on realistic workloads even though
// both share the same hash-collision bound.
type Analysis struct {
	// BitZeroProb is p, the probability a given bit stays 0.
	BitZeroProb float64
	// ValueFPProb is q, the probability one absent value probes as present.
	ValueFPProb float64
	// PatternFPBoundBF bounds the BF per-pattern false-positive rate, q^b.
	PatternFPBoundBF float64
	// PatternFPBoundWBF bounds the WBF per-pattern rate, q^b * W^(1-b).
	PatternFPBoundWBF float64
	// DistinctWeights is W, the number of weight-table entries.
	DistinctWeights int
}

// Analyze computes the false-positive model for a built filter.
func Analyze(f *Filter) Analysis {
	m := float64(f.params.Bits)
	k := float64(f.params.Hashes)
	n := float64(f.DistinctKeys())
	b := float64(len(f.sampleIdx))
	w := len(f.weights)

	p := math.Pow(1-1/m, k*n)
	q := math.Pow(1-p, k)
	bf := math.Pow(q, b)
	wbf := bf
	if w > 1 && b > 1 {
		wbf = bf * math.Pow(float64(w), 1-b)
	}
	return Analysis{
		BitZeroProb:       p,
		ValueFPProb:       q,
		PatternFPBoundBF:  bf,
		PatternFPBoundWBF: wbf,
		DistinctWeights:   w,
	}
}
