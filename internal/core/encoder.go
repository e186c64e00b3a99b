package core

import (
	"fmt"
	"math"

	"dimatch/internal/bloom"
	"dimatch/internal/pattern"
)

// Encoder builds a Weighted Bloom Filter from query pattern sets at the
// data center side — Algorithm 1 of the paper:
//
//  1. represent each pattern in accumulated form (Eq. 3),
//  2. enumerate all 2^e - 1 combinations of the query's local patterns,
//  3. assign each combination its exact weight numerator,
//  4. sample b points per combination and hash every value in the
//     ε-tolerance band into the WBF, attaching the weight pointer.
type Encoder struct {
	params  Params // the filter's, and ε: the bands the encoder hashes
	length  int
	sample  []int
	filter  *Filter
	pairs   []uint64 // bit<<32 | weight pointer, one per bit a value hashed to
	queries map[QueryID]bool
	sealed  bool
}

// NewEncoder returns an encoder for patterns of the given time-series
// length.
func NewEncoder(params Params, patternLength int) (*Encoder, error) {
	f, err := newFilter(params, patternLength)
	if err != nil {
		return nil, err
	}
	return &Encoder{
		params:  params.withDefaults(),
		length:  patternLength,
		sample:  f.sampleIdx,
		filter:  f,
		queries: make(map[QueryID]bool),
	}, nil
}

// AddQuery hashes one query pattern set into the filter. Query IDs must be
// unique within an encoder.
func (e *Encoder) AddQuery(q Query) error {
	if e.sealed {
		return fmt.Errorf("core: encoder already sealed by Filter()")
	}
	if err := q.Validate(); err != nil {
		return err
	}
	if q.Length() != e.length {
		return fmt.Errorf("core: query %d has length %d, encoder wants %d", q.ID, q.Length(), e.length)
	}
	if e.queries[q.ID] {
		return fmt.Errorf("core: duplicate query id %d", q.ID)
	}
	e.queries[q.ID] = true

	f := e.filter
	first := len(f.weights)
	f.weights = WeightRows(f.weights, q.ID, q.localSums())
	for id := first; id < len(f.weights); id++ {
		combined, err := pattern.Combine(q.Locals, f.weights[id].Mask)
		if err != nil {
			return err
		}
		err = e.forEachBand(combined, func(slot int, lo, hi int64) {
			for u := lo; u <= hi; u++ {
				var buf [16]uint64
				for _, bit := range f.family.Indexes(f.keys.key(slot, u), buf[:0]) {
					e.pairs = append(e.pairs, bit<<32|uint64(id))
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachBand accumulates p, samples it and yields the tolerance band of
// every sampled point, clipped at zero: candidate values are never negative.
func (e *Encoder) forEachBand(p pattern.Pattern, yield func(slot int, lo, hi int64)) error {
	acc := p.Accumulate()
	vals, err := acc.SampleAt(e.sample)
	if err != nil {
		return err
	}
	for slot, v := range vals {
		tol := Band(e.params.Epsilon, e.sample[slot])
		yield(slot, max(v-tol, 0), v+tol)
	}
	return nil
}

// Filter seals the encoder and returns the built WBF. Further AddQuery
// calls fail: the filter has been (conceptually) disseminated.
func (e *Encoder) Filter() *Filter {
	if !e.sealed {
		e.sealed = true
		e.filter.seal(e.pairs)
		e.pairs = nil
	}
	return e.filter
}

// EstimateInsertions predicts the number of hashed values for sizing a
// filter before encoding: per query, (2^e - 1) combinations × b samples ×
// the mean band width. It is an upper bound: the encoder clips bands at
// zero.
func EstimateInsertions(p Params, patternLength int, queries []Query) (uint64, error) {
	p = p.withDefaults()
	idx, err := pattern.SampleIndexes(patternLength, p.Samples)
	if err != nil {
		return 0, err
	}
	var perPattern uint64
	for _, g := range idx {
		perPattern += uint64(2*Band(p.Epsilon, g) + 1)
	}
	var total uint64
	for _, q := range queries {
		if len(q.Locals) == 0 || len(q.Locals) > pattern.MaxLocals {
			return 0, fmt.Errorf("core: query %d has %d locals", q.ID, len(q.Locals))
		}
		combos := uint64(1)<<uint(len(q.Locals)) - 1
		total += combos * perPattern
	}
	return total, nil
}

// DefaultTargetFP is the value-level false-positive rate a filter is sized
// for when the caller's target lies outside (0, 1).
const DefaultTargetFP = 0.01

// SizedParams returns Params sized for sending the given queries' filter at
// the target value-level false-positive rate, preserving the pipeline knobs
// of base: one hash and m = ⌈n/f⌉ bits for the n estimated insertions, at
// most MaxBits. A target outside (0, 1) means DefaultTargetFP.
//
// This is not the memory optimum (k = ln 2 · m/n at half fill) but the
// transmission one (Mitzenmacher, Compressed Bloom Filters): a filter ships
// its set bits, each as a Rice-coded gap plus its list code, and one hash
// sets the fewest bits per value. The sparse array reaches the same FP,
// 1 − (1 − 1/m)ⁿ ≤ n/m, in fewer bits on the wire.
func SizedParams(base Params, patternLength int, queries []Query, targetFP float64) (Params, error) {
	base = base.withDefaults()
	n, err := EstimateInsertions(base, patternLength, queries)
	if err != nil {
		return Params{}, err
	}
	if !(targetFP > 0 && targetFP < 1) {
		targetFP = DefaultTargetFP
	}
	base.Bits = uint64(min(math.Ceil(float64(max(n, 1))/targetFP), MaxBits))
	base.Hashes = 1
	return base, nil
}

// BFEncoder builds a plain Bloom filter with the identical representation
// pipeline (accumulation, combinations, sampling, ε bands) but no weights —
// the paper's BF baseline ("utilize a Bloom Filter in DI-matching, instead
// of WBF").
type BFEncoder struct {
	inner  *Encoder
	filter *bloom.Filter
}

// NewBFEncoder mirrors NewEncoder for the baseline.
func NewBFEncoder(params Params, patternLength int) (*BFEncoder, error) {
	inner, err := NewEncoder(params, patternLength)
	if err != nil {
		return nil, err
	}
	bf, err := bloom.New(inner.params.Bits, inner.params.Hashes, inner.params.Seed)
	if err != nil {
		return nil, err
	}
	return &BFEncoder{inner: inner, filter: bf}, nil
}

// AddQuery hashes one query pattern set into the baseline filter.
func (e *BFEncoder) AddQuery(q Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if q.Length() != e.inner.length {
		return fmt.Errorf("core: query %d has length %d, encoder wants %d", q.ID, q.Length(), e.inner.length)
	}
	return q.EachCombination(func(_ pattern.Subset, _ int64, combined pattern.Pattern) error {
		return e.inner.forEachBand(combined, func(slot int, lo, hi int64) {
			for u := lo; u <= hi; u++ {
				e.filter.Add(e.inner.filter.keys.key(slot, u))
			}
		})
	})
}

// Filter returns the built baseline filter.
func (e *BFEncoder) Filter() *bloom.Filter { return e.filter }

// SampleIndexes returns the sample positions, identical to the WBF's.
func (e *BFEncoder) SampleIndexes() []int { return e.inner.sample }
