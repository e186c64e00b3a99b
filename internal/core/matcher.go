package core

import (
	"fmt"
	"slices"

	"dimatch/internal/bloom"
	"dimatch/internal/pattern"
)

// Matcher runs Algorithm 2 at a base station: it converts a resident local
// pattern to accumulated form, samples the same b positions the data center
// sampled, probes the received WBF and reports the pattern's weight(s) iff
// every sampled point is present with a common weight.
//
// It probes through a transition table over the filter's dictionary codes
// (stateTable): a row's sampled slots are probed last-first, each set bit's
// code moves the row to the next interned pointer set, and each distinct
// (set, list) intersection runs once per table, not once per resident. A
// Matcher from NewMatcher owns its table; a walk's matchers borrow one from
// a process-wide pool for the walk's duration. The table is cleared between
// rows once it passes its cap.
//
// All per-pattern scratch (the sampled accumulated values, the table's
// states) lives on the Matcher and is reused across Match calls, so a
// station walking thousands of residents allocates nothing on the probe
// path after warm-up. That also means a Matcher is not safe for concurrent
// use; create one per goroutine (MatchResidents does exactly that).
type Matcher struct {
	filter    *Filter
	sampleIdx []int // ascending; pinned at construction
	table     *stateTable
	valBuf    []int64
}

// NewMatcher returns a matcher probing the given filter.
func NewMatcher(f *Filter) *Matcher {
	m := &Matcher{table: new(stateTable)}
	m.reset(f)
	return m
}

// reset points m at another filter, keeping its grown scratch, and empties
// its table: the table's codes name the old filter's lists.
func (m *Matcher) reset(f *Filter) {
	m.filter, m.sampleIdx = f, f.sampleIdx
	m.table.reset()
}

// sampledAccumulate computes the accumulated (prefix-sum) values of row p
// at the matcher's sample positions in one pass, in int64 whatever the
// row's cell type, without materializing the full accumulated series — the
// per-resident allocation the probe path used to pay. Sample indexes ascend
// by construction (pattern.SampleIndexes).
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func sampledAccumulate[R pattern.Row[C], C pattern.Cell](m *Matcher, p R) []int64 {
	vals := m.valBuf[:0]
	run, g := int64(0), 0
	for _, pos := range m.sampleIdx {
		for ; g <= pos; g++ {
			run += int64(p[g])
		}
		vals = append(vals, run)
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
	return matchRow(m, p)
}

// matchRow is Match on a row of any cell type: a station's walk probes its
// int32 rows through it.
func matchRow[R pattern.Row[C], C pattern.Cell](m *Matcher, p R) (ids []WeightID, ok bool, err error) {
	if len(p) != m.filter.length {
		// cold path: caller bug, never taken per-resident
		return nil, false, fmt.Errorf("core: pattern length %d, filter wants %d", len(p), m.filter.length)
	}
	if m.table.full() {
		m.table.reset() // a row boundary: no state of the table is in use
	}
	s := m.table.walk(m.filter, sampledAccumulate(m, p))
	if s == stateReject {
		return nil, false, nil
	}
	return m.table.set(s), true, nil
}

// SelectClosestWeights reduces a Match result to at most one weight pointer
// per query: the entry whose numerator is closest to the candidate
// pattern's value sum (its accumulated maximum), ties to the smaller
// numerator. It appends the selection, ascending, to dst (a walk's one
// pointer arena) and returns the extended slice.
//
// This implements Algorithm 2's singular "return the weight". Under ε > 0
// a piece can sit within tolerance of several combinations of one query;
// the combination whose magnitude matches the piece is the right
// attribution — crediting any other corrupts the center's sum-to-1
// partition arithmetic.
func SelectClosestWeights(dst []WeightID, f *Filter, ids []WeightID, patternSum int64) ([]WeightID, error) {
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
	lo := len(dst)
	for _, b := range perQuery {
		dst = append(dst, b.id)
	}
	slices.Sort(dst[lo:])
	return dst, nil
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
func (m *BFMatcher) Match(p pattern.Pattern) (bool, error) { return MatchBF(m, p) }

// MatchBF is BFMatcher.Match on a row of any cell type — a station's int32
// rows. It accumulates in int64 and probes each sampled position as the
// prefix sum reaches it, so it allocates nothing.
func MatchBF[R pattern.Row[C], C pattern.Cell](m *BFMatcher, p R) (bool, error) {
	if len(p) != m.length {
		return false, fmt.Errorf("core: pattern length %d, filter wants %d", len(p), m.length)
	}
	run, g := int64(0), 0
	for slot, pos := range m.sample {
		for ; g <= pos; g++ {
			run += int64(p[g])
		}
		if !m.filter.Contains(m.keys.key(slot, run)) {
			return false, nil
		}
	}
	return true, nil
}
