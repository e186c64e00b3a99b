package core

import (
	"errors"
	"fmt"
	"math/bits"

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

// WeightRows appends to dst the weight-table rows of query id, whose locals
// have the value sums sums: one row per non-empty subset mask of the locals,
// in increasing mask order, with the subset's summed values as numerator and
// all locals' as denominator. Zero-numerator combinations (e.g. a local with
// no activity) get no row: they carry weight 0, so hashing one would let
// empty candidate patterns match and probing for one would admit stations
// nobody can ask about. Of the 2^e − 1 subsets of e locals, z of them with
// zero sums, that leaves 2^e − 2^z rows.
//
// This is Algorithm 1's table stated once: the encoder builds a filter's rows
// with it, and the wire decoder rebuilds them from the sums a query frame
// carries. The sums must be non-negative, at most pattern.MaxLocals of them,
// with a total that fits an int64.
func WeightRows(dst []WeightEntry, id QueryID, sums []int64) []WeightEntry {
	var total int64
	for _, s := range sums {
		total += s
	}
	for mask := pattern.Subset(1); mask < 1<<len(sums); mask++ {
		var num int64
		for m := uint32(mask); m != 0; m &= m - 1 {
			num += sums[bits.TrailingZeros32(m)]
		}
		if num != 0 {
			dst = append(dst, WeightEntry{Query: id, Mask: mask, Numerator: num, Denominator: total})
		}
	}
	return dst
}

// localSums returns each local's value sum, the weight numerator of the
// subset holding it alone.
func (q Query) localSums() []int64 {
	sums := make([]int64, len(q.Locals))
	for j, l := range q.Locals {
		sums[j] = l.Sum()
	}
	return sums
}

// EachCombination is Algorithm 1's combination walk, stated once for the
// encoders and the routing probe: it yields every combination WeightRows
// gives a row, in the same order, with its weight numerator and combined
// (element-wise summed) pattern, and stops at the first error yield returns.
func (q Query) EachCombination(yield func(mask pattern.Subset, numerator int64, combined pattern.Pattern) error) error {
	if len(q.Locals) == 0 || len(q.Locals) > pattern.MaxLocals {
		return fmt.Errorf("core: query %d has %d locals, want 1..%d", q.ID, len(q.Locals), pattern.MaxLocals)
	}
	for _, row := range WeightRows(nil, q.ID, q.localSums()) {
		combined, err := pattern.Combine(q.Locals, row.Mask)
		if err != nil {
			return err
		}
		if err := yield(row.Mask, row.Numerator, combined); err != nil {
			return err
		}
	}
	return nil
}
