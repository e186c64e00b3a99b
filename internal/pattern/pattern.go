// Package pattern implements the communication-pattern time-series model of
// the paper: integer-valued series (Definition 1 reduces the three call
// attributes to one integer per interval), the accumulation transform
// (Eq. 3), the ε-similarity predicate (Eq. 2), deterministic uniform
// sampling, and subset combination of local patterns with their exact
// integer weights.
package pattern

import (
	"errors"
	"fmt"
)

// Pattern is an integer time series: one value per time interval, in time
// order. The paper works with non-negative integers (call counts, durations,
// partner counts); several transforms below document where that matters.
type Pattern []int64

// ErrLengthMismatch is returned by operations that require equal-length
// patterns.
var ErrLengthMismatch = errors.New("pattern: length mismatch")

// Clone returns a deep copy of p.
func (p Pattern) Clone() Pattern {
	if p == nil {
		return nil
	}
	out := make(Pattern, len(p))
	copy(out, p)
	return out
}

// Equal reports whether p and q have identical length and values.
func (p Pattern) Equal(q Pattern) bool {
	if len(p) != len(q) {
		return false
	}
	for i, v := range p {
		if q[i] != v {
			return false
		}
	}
	return true
}

// Sum returns the sum of all values. For a non-negative pattern this equals
// the maximum of its accumulated form, which is exactly the weight numerator
// the paper assigns to the pattern (see Weight in combine.go).
func (p Pattern) Sum() int64 { return RowSum(p) }

// IsNonNegative reports whether every value of p is >= 0.
func (p Pattern) IsNonNegative() bool {
	for _, v := range p {
		if v < 0 {
			return false
		}
	}
	return true
}

// Accumulate returns the accumulated form of p per Eq. 3:
// f(0) = p[0], f(g) = f(g-1) + p[g]. The accumulated form of a non-negative
// pattern is monotonically non-decreasing, which is what lets a single value
// carry both magnitude and time-order information.
func (p Pattern) Accumulate() Pattern {
	if len(p) == 0 {
		return nil
	}
	out := make(Pattern, len(p))
	var run int64
	for i, v := range p {
		run += v
		out[i] = run
	}
	return out
}

// Similar implements Eq. 2: it reports whether |p[t] - q[t]| <= eps for
// every interval t. Patterns of different lengths are never similar.
// eps must be non-negative.
func Similar(p, q Pattern, eps int64) bool {
	if len(p) != len(q) {
		return false
	}
	for i, v := range p {
		d := v - q[i]
		if d < 0 {
			d = -d
		}
		if d > eps {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the L∞ distance between p and q, the largest
// per-interval absolute difference. It errors on length mismatch.
func MaxAbsDiff(p, q Pattern) (int64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(p), len(q))
	}
	var m int64
	for i, v := range p {
		d := v - q[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m, nil
}

// Add returns the element-wise sum of p and q. It errors on length
// mismatch. Aggregating local patterns into a global one (Vi = Σj Vi,j) is
// repeated element-wise addition.
func Add(p, q Pattern) (Pattern, error) {
	if len(p) != len(q) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(p), len(q))
	}
	out := make(Pattern, len(p))
	for i, v := range p {
		out[i] = v + q[i]
	}
	return out, nil
}

// SumAll returns the element-wise sum of all patterns. All patterns must
// share one length; SumAll errors otherwise and on an empty input.
func SumAll(patterns []Pattern) (Pattern, error) {
	if len(patterns) == 0 {
		return nil, errors.New("pattern: SumAll of no patterns")
	}
	out := patterns[0].Clone()
	for _, p := range patterns[1:] {
		if len(p) != len(out) {
			return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(p), len(out))
		}
		for i, v := range p {
			out[i] += v
		}
	}
	return out, nil
}
