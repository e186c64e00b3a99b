package core

import (
	"fmt"

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
	params  Params
	length  int
	sample  []int
	filter  *Filter
	pairs   []uint64 // bit<<32 | weight pointer, one per bit a value hashed to
	queries map[QueryID]bool
	seen    map[int64]struct{} // distinct hashed keys, for the FP model
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
		params:  f.params,
		length:  patternLength,
		sample:  f.sampleIdx,
		filter:  f,
		queries: make(map[QueryID]bool),
		seen:    make(map[int64]struct{}),
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

	global, err := q.Global()
	if err != nil {
		return err
	}
	denom := global.Sum()
	return q.EachCombination(func(mask pattern.Subset, num int64, combined pattern.Pattern) error {
		f := e.filter
		id := uint64(len(f.weights))
		f.weights = append(f.weights, WeightEntry{
			Query:       q.ID,
			Mask:        mask,
			Numerator:   num,
			Denominator: denom,
		})
		return e.forEachSampledValue(combined, func(slot int, value int64) {
			key := f.keys.key(slot, value)
			e.seen[key] = struct{}{}
			var buf [16]uint64
			for _, bit := range f.family.Indexes(key, buf[:0]) {
				e.pairs = append(e.pairs, bit<<32|id)
			}
			f.inserted++
		})
	})
}

// forEachSampledValue accumulates p, samples it and yields every value in
// the tolerance band of every sampled point.
func (e *Encoder) forEachSampledValue(p pattern.Pattern, yield func(slot int, value int64)) error {
	acc := p.Accumulate()
	vals, err := acc.SampleAt(e.sample)
	if err != nil {
		return err
	}
	for slot, v := range vals {
		tol := e.params.band(e.sample[slot])
		lo := v - tol
		if lo < 0 {
			lo = 0 // accumulated candidate values are never negative
		}
		for u := lo; u <= v+tol; u++ {
			yield(slot, u)
		}
	}
	return nil
}

// Filter seals the encoder and returns the built WBF. Further AddQuery
// calls fail: the filter has been (conceptually) disseminated.
func (e *Encoder) Filter() *Filter {
	if !e.sealed {
		e.sealed = true
		e.filter.distinct = uint64(len(e.seen))
		e.filter.seal(e.pairs)
		e.pairs = nil
	}
	return e.filter
}

// EstimateInsertions predicts the number of hashed values for sizing a
// filter before encoding: per query, (2^e - 1) combinations × b samples ×
// the mean band width. The estimate is exact for ToleranceAbsolute and an
// upper bound for ToleranceScaled (bands are clipped at zero).
func EstimateInsertions(p Params, patternLength int, queries []Query) (uint64, error) {
	p = p.withDefaults()
	idx, err := pattern.SampleIndexes(patternLength, p.Samples)
	if err != nil {
		return 0, err
	}
	var perPattern uint64
	for _, g := range idx {
		perPattern += uint64(2*p.band(g) + 1)
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

// SizedParams returns Params sized for the given queries at the target
// false-positive rate, preserving the pipeline knobs of base.
func SizedParams(base Params, patternLength int, queries []Query, targetFP float64) (Params, error) {
	base = base.withDefaults()
	n, err := EstimateInsertions(base, patternLength, queries)
	if err != nil {
		return Params{}, err
	}
	m, k := bloom.OptimalParams(n, targetFP)
	base.Bits = m
	base.Hashes = k
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
		return e.inner.forEachSampledValue(combined, func(slot int, value int64) {
			e.filter.Add(e.inner.filter.keys.key(slot, value))
		})
	})
}

// Filter returns the built baseline filter.
func (e *BFEncoder) Filter() *bloom.Filter { return e.filter }

// SampleIndexes returns the sample positions, identical to the WBF's.
func (e *BFEncoder) SampleIndexes() []int { return e.inner.sample }
