package pattern

import (
	"errors"
	"fmt"
)

// MaxLocals bounds the number of local patterns a query set may carry.
// Combinations are enumerated as bitmasks over the locals, and the count of
// combinations (2^e - 1) must stay tractable; the paper's scenarios have a
// handful of locals (home, office, shopping, ...), so 20 is generous.
const MaxLocals = 20

// Subset is a bitmask over the local patterns of a query set: bit j selects
// local j. The zero Subset is empty and never a valid combination.
type Subset uint32

// Contains reports whether local j is in the subset.
func (s Subset) Contains(j int) bool { return s&(1<<uint(j)) != 0 }

// String renders the subset as e.g. {0,2,3}.
func (s Subset) String() string {
	out := "{"
	first := true
	for j := 0; j < 32; j++ {
		if !s.Contains(j) {
			continue
		}
		if !first {
			out += ","
		}
		out += fmt.Sprint(j)
		first = false
	}
	return out + "}"
}

// Combine returns the element-wise sum of the locals selected by mask.
// All locals must share one length and mask must be non-empty and within
// range.
func Combine(locals []Pattern, mask Subset) (Pattern, error) {
	if mask == 0 {
		return nil, errors.New("pattern: Combine with empty subset")
	}
	if int(mask) >= 1<<uint(len(locals)) {
		return nil, fmt.Errorf("pattern: subset %s references locals beyond %d", mask, len(locals))
	}
	var out Pattern
	for j := 0; j < len(locals); j++ {
		if !mask.Contains(j) {
			continue
		}
		if out == nil {
			out = locals[j].Clone()
			continue
		}
		if len(locals[j]) != len(out) {
			return nil, fmt.Errorf("%w: local %d has length %d, want %d", ErrLengthMismatch, j, len(locals[j]), len(out))
		}
		for i, v := range locals[j] {
			out[i] += v
		}
	}
	return out, nil
}
