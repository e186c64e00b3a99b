package core

import (
	"errors"
	"fmt"

	"dimatch/internal/pattern"
)

// QueryID identifies one query pattern set within a filter. Multiple
// queries are hashed into a single WBF ("we hash all the patterns into one
// Bloom Filter and then distribute this Bloom Filter to all the base
// stations"); the weight table keeps them apart.
type QueryID uint32

// Query is one pattern set to search for: the local patterns observed for a
// reference person, whose element-wise sum is the global pattern that
// defines a match (Problem Statement, Section III-B).
type Query struct {
	ID QueryID
	// Locals are the e >= 1 local patterns. A query known only globally is
	// expressed as a single local equal to the global pattern.
	Locals []pattern.Pattern
}

// Global returns the query's global pattern, the element-wise sum of its
// locals.
func (q Query) Global() (pattern.Pattern, error) {
	return pattern.SumAll(q.Locals)
}

// Validate checks structural soundness: at least one local, no more than
// pattern.MaxLocals, equal lengths, non-negative values (the communication
// attributes are counts and durations) and a non-zero global sum (an
// all-zero query would carry weight 0/0).
func (q Query) Validate() error {
	if len(q.Locals) == 0 {
		return errors.New("core: query has no local patterns")
	}
	if len(q.Locals) > pattern.MaxLocals {
		return fmt.Errorf("core: query has %d locals, max %d", len(q.Locals), pattern.MaxLocals)
	}
	length := len(q.Locals[0])
	if length == 0 {
		return errors.New("core: query patterns are empty")
	}
	var sum int64
	for i, l := range q.Locals {
		if len(l) != length {
			return fmt.Errorf("core: local %d has length %d, want %d", i, len(l), length)
		}
		if !l.IsNonNegative() {
			return fmt.Errorf("core: local %d has negative values", i)
		}
		sum += l.Sum()
	}
	if sum == 0 {
		return errors.New("core: query global pattern sums to zero")
	}
	return nil
}

// Length returns the time-series length of the query's patterns.
func (q Query) Length() int {
	if len(q.Locals) == 0 {
		return 0
	}
	return len(q.Locals[0])
}

// EachCombination is Algorithm 1's combination walk, stated once for the
// encoders and the routing probe: it yields every non-empty subset of the
// query's locals in increasing mask order with its weight numerator and
// combined (element-wise summed) pattern, and stops at the first error yield
// returns. Zero-numerator combinations (e.g. a local with no activity) are
// skipped: they carry weight 0, so hashing one would let empty candidate
// patterns match and probing for one would admit stations nobody can ask
// about.
func (q Query) EachCombination(yield func(mask pattern.Subset, numerator int64, combined pattern.Pattern) error) error {
	subsets, err := pattern.EnumerateSubsets(len(q.Locals))
	if err != nil {
		return err
	}
	for _, mask := range subsets {
		num, err := pattern.WeightNumerator(q.Locals, mask)
		if err != nil {
			return err
		}
		if num == 0 {
			continue
		}
		combined, err := pattern.Combine(q.Locals, mask)
		if err != nil {
			return err
		}
		if err := yield(mask, num, combined); err != nil {
			return err
		}
	}
	return nil
}
