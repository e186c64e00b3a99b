package core

import (
	"fmt"
	"sort"

	"dimatch/internal/bloom"
	"dimatch/internal/pattern"
)

// Matcher runs Algorithm 2 at a base station: it converts a resident local
// pattern to accumulated form, samples the same b positions the data center
// sampled, probes the received WBF and reports the pattern's weight(s) iff
// every sampled point is present with a common weight.
//
// All per-pattern scratch (the sampled accumulated values, the candidate
// pointer sets) lives on the Matcher and is reused across Match calls, so a
// station walking thousands of residents allocates nothing on the probe
// path after warm-up. That also means a Matcher is not safe for concurrent
// use; create one per goroutine (MatchResidents does exactly that).
type Matcher struct {
	filter    *Filter
	sampleIdx []int // ascending; pinned at construction
	current   []WeightID
	probeBuf  []WeightID
	valBuf    []int64
}

// NewMatcher returns a matcher probing the given filter.
func NewMatcher(f *Filter) *Matcher {
	return &Matcher{filter: f, sampleIdx: f.sampleIdx}
}

// sampledAccumulate computes the accumulated (prefix-sum) values of p at the
// matcher's sample positions in one pass, without materializing the full
// accumulated series — the per-resident allocation the probe path used to
// pay. Sample indexes ascend by construction (pattern.SampleIndexes).
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (m *Matcher) sampledAccumulate(p pattern.Pattern) []int64 {
	vals := m.valBuf[:0]
	run := int64(0)
	next := 0
	for i, v := range p {
		run += v
		for next < len(m.sampleIdx) && m.sampleIdx[next] == i {
			vals = append(vals, run)
			next++
		}
	}
	m.valBuf = vals[:0] // keep grown capacity for the next pattern
	return vals
}

// Match probes one local pattern. It returns the weight pointers shared by
// every sampled point, or ok == false when the pattern does not qualify
// (some bit unset, or no weight consistent across all points — the paper's
// "return zero").
//
// Several pointers can survive when distinct query combinations are within
// tolerance of each other at every sampled point; the caller
// forwards all of them and the ranker resolves per query.
//
// The returned slice is valid until the next Match call.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (m *Matcher) Match(p pattern.Pattern) (ids []WeightID, ok bool, err error) {
	if len(p) != m.filter.length {
		// cold path: caller bug, never taken per-resident
		return nil, false, fmt.Errorf("core: pattern length %d, filter wants %d", len(p), m.filter.length)
	}
	vals := m.sampledAccumulate(p)
	current := m.current[:0]
	for slot, v := range vals {
		found, bitsOK := m.filter.probe(slot, v, m.probeBuf[:0])
		if !bitsOK {
			return nil, false, nil
		}
		m.probeBuf = found[:0] // keep any grown capacity for the next probe
		if slot == 0 {
			current = append(current, found...)
			// The append may have grown the buffer; persist it immediately so
			// a later-slot rejection (the common case on partially-matching
			// residents) still keeps the capacity for the next pattern.
			m.current = current
		} else {
			// found and current live in distinct buffers, so the in-place
			// intersection of current never reads clobbered memory.
			current = intersectSorted(current, found)
		}
		if len(current) == 0 {
			return nil, false, nil
		}
	}
	m.current = current
	return current, true, nil
}

// SelectClosestWeights reduces a Match result to at most one weight pointer
// per query: the entry whose numerator is closest to the candidate
// pattern's value sum (its accumulated maximum), ties to the smaller
// numerator.
//
// This implements Algorithm 2's singular "return the weight". Under ε > 0
// a piece can sit within tolerance of several combinations of one query;
// the combination whose magnitude matches the piece is the right
// attribution — crediting any other corrupts the center's sum-to-1
// partition arithmetic.
func SelectClosestWeights(f *Filter, ids []WeightID, patternSum int64) ([]WeightID, error) {
	// The surviving pointer set is tiny (one handful of queries at most), so
	// a linear scan over a small stack-backed slice beats a map allocation —
	// this runs once per matching resident on the station hot path.
	type best struct {
		query QueryID
		id    WeightID
		dist  int64
		num   int64
	}
	var stack [8]best
	perQuery := stack[:0]
	for _, id := range ids {
		w, err := f.Weight(id)
		if err != nil {
			return nil, err
		}
		dist := w.Numerator - patternSum
		if dist < 0 {
			dist = -dist
		}
		found := false
		for i := range perQuery {
			if perQuery[i].query != w.Query {
				continue
			}
			found = true
			if dist < perQuery[i].dist || (dist == perQuery[i].dist && w.Numerator < perQuery[i].num) {
				perQuery[i] = best{query: w.Query, id: id, dist: dist, num: w.Numerator}
			}
			break
		}
		if !found {
			perQuery = append(perQuery, best{query: w.Query, id: id, dist: dist, num: w.Numerator})
		}
	}
	out := make([]WeightID, 0, len(perQuery))
	for _, b := range perQuery {
		out = append(out, b.id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// BFMatcher is the baseline counterpart of Matcher: same representation and
// sampling, but the plain Bloom filter can only answer "all bits set", so
// every such pattern is reported with no weight to prune or verify it.
type BFMatcher struct {
	filter *bloom.Filter
	sample []int
	length int
	keys   keyer
}

// NewBFMatcher returns a baseline matcher. params and patternLength must
// match the encoder's (they travel with the query message in practice).
func NewBFMatcher(f *bloom.Filter, params Params, patternLength int) (*BFMatcher, error) {
	params = params.withDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if patternLength <= 0 {
		return nil, fmt.Errorf("core: pattern length %d, want > 0", patternLength)
	}
	idx, err := pattern.SampleIndexes(patternLength, params.Samples)
	if err != nil {
		return nil, err
	}
	return &BFMatcher{
		filter: f,
		sample: idx,
		length: patternLength,
		keys:   newKeyer(params, len(idx)),
	}, nil
}

// Match reports whether the pattern qualifies under the plain Bloom filter.
func (m *BFMatcher) Match(p pattern.Pattern) (bool, error) {
	if len(p) != m.length {
		return false, fmt.Errorf("core: pattern length %d, filter wants %d", len(p), m.length)
	}
	acc := p.Accumulate()
	vals, err := acc.SampleAt(m.sample)
	if err != nil {
		return false, err
	}
	for slot, v := range vals {
		if !m.filter.Contains(m.keys.key(slot, v)) {
			return false, nil
		}
	}
	return true, nil
}
