// Package core implements the paper's primary contribution: the Weighted
// Bloom Filter (WBF) and the three DI-matching algorithms built on it —
// query encoding at the data center (Algorithm 1), local pattern matching at
// base stations (Algorithm 2) and weight aggregation / similarity ranking
// back at the data center (Algorithm 3).
package core

import "fmt"

// ToleranceMode selects how the per-interval tolerance ε of Eq. 2 is mapped
// into the accumulated domain when "all possible approximate values" are
// hashed (Algorithm 1).
type ToleranceMode int

const (
	// ToleranceScaled hashes the band ±ε·(g+1) around the accumulated value
	// at original interval g. Any pattern within per-interval ε of a query
	// combination stays inside this band at every sample, so matching has no
	// false negatives with respect to Eq. 2. This is the default.
	ToleranceScaled ToleranceMode = iota + 1
	// ToleranceAbsolute hashes the flat band ±ε at every sample. Cheaper and
	// tighter, but a pattern can drift beyond ±ε in accumulated space while
	// honouring Eq. 2 per interval, so false negatives become possible.
	// Kept as an ablation (di-bench -run tolerance).
	ToleranceAbsolute
)

func (m ToleranceMode) String() string {
	switch m {
	case ToleranceScaled:
		return "scaled"
	case ToleranceAbsolute:
		return "absolute"
	default:
		return fmt.Sprintf("ToleranceMode(%d)", int(m))
	}
}

// Params carries every knob of the WBF pipeline. The notation mirrors the
// paper's Table I: m filter bits, k hash functions, b sample points, ε
// approximation tolerance.
type Params struct {
	// Bits is m, the filter length in bits.
	Bits uint64
	// Hashes is k, the number of hash functions.
	Hashes int
	// Samples is b, the number of sampled points per pattern. The paper's
	// convergence study settles on 12.
	Samples int
	// Epsilon is ε, the per-interval matching tolerance of Eq. 2 (ε = 0
	// demands exact matching).
	Epsilon int64
	// Tolerance selects the accumulated-domain interpretation of ε.
	// Zero value means ToleranceScaled.
	Tolerance ToleranceMode
	// Seed fixes the hash family so the data center and every base station
	// derive identical bit positions.
	Seed uint64
	// PositionSalted is an extension beyond the paper: when true, hashed
	// keys are salted with their sample position so a value inserted for
	// sample j can only satisfy probes of sample j. This removes the
	// cross-position false positives the paper tolerates. Off by default to
	// match the published scheme; measured as an ablation.
	PositionSalted bool
}

// DefaultSamples is the paper's chosen b after the convergence study
// (Section V-B): "when the number of sample values is 12, the accuracy rates
// ... become stable".
const DefaultSamples = 12

// Sanity ceilings on parameters that size allocations or per-probe work.
// Parameters arrive over the wire (a filter ships its Params in every query
// frame), so values far beyond any useful configuration are treated as
// corruption rather than honored: Hashes bounds the loop every probe runs,
// Samples bounds the sample-index table a filter allocates, and Bits keeps a
// bit index in 32 bits (the encoder packs
// bit<<32|pointer pairs; a filter's set positions are uint32).
const (
	MaxBits    = 1 << 32
	MaxHashes  = 512
	MaxSamples = 1 << 16
)

// Validate checks the parameter set and returns a descriptive error for the
// first violation found.
func (p Params) Validate() error {
	if p.Bits == 0 || p.Bits > MaxBits {
		return fmt.Errorf("core: Params.Bits = %d, want 1..%d", p.Bits, uint64(MaxBits))
	}
	if p.Hashes <= 0 || p.Hashes > MaxHashes {
		return fmt.Errorf("core: Params.Hashes = %d, want 1..%d", p.Hashes, MaxHashes)
	}
	if p.Samples <= 0 || p.Samples > MaxSamples {
		return fmt.Errorf("core: Params.Samples = %d, want 1..%d", p.Samples, MaxSamples)
	}
	if p.Epsilon < 0 {
		return fmt.Errorf("core: Params.Epsilon = %d, want >= 0", p.Epsilon)
	}
	switch p.Tolerance {
	case ToleranceScaled, ToleranceAbsolute:
	default:
		return fmt.Errorf("core: unknown tolerance mode %d", int(p.Tolerance))
	}
	return nil
}

// withDefaults fills zero-value fields that have well-defined defaults.
func (p Params) withDefaults() Params {
	if p.Tolerance == 0 {
		p.Tolerance = ToleranceScaled
	}
	if p.Samples == 0 {
		p.Samples = DefaultSamples
	}
	return p
}

// band returns the inclusive half-width of the hashed value band for a
// sample at original interval index g.
func (p Params) band(g int) int64 {
	switch p.Tolerance {
	case ToleranceAbsolute:
		return p.Epsilon
	default:
		return p.Epsilon * int64(g+1)
	}
}
