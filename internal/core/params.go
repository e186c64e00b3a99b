// Package core implements the paper's primary contribution: the Weighted
// Bloom Filter (WBF) and the three DI-matching algorithms built on it —
// query encoding at the data center (Algorithm 1), local pattern matching at
// base stations (Algorithm 2) and weight aggregation / similarity ranking
// back at the data center (Algorithm 3).
package core

import "fmt"

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
	return nil
}

// withDefaults fills zero-value fields that have well-defined defaults.
func (p Params) withDefaults() Params {
	if p.Samples == 0 {
		p.Samples = DefaultSamples
	}
	return p
}

// Band returns the inclusive half-width ε·(g+1) of the value band hashed
// for a sample at original interval index g: the accumulated-domain image
// of Eq. 2's per-interval ε. A pattern within ε of a query combination at
// every interval stays inside this band at every sample, so neither the
// WBF nor a routing digest built on it has false negatives.
func Band(eps int64, g int) int64 { return eps * int64(g+1) }
