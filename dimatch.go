package dimatch

import (
	"dimatch/internal/core"
	"dimatch/internal/metrics"
	"dimatch/internal/pattern"
)

// Core vocabulary, aliased from the implementation packages so the public
// surface is a single import.
type (
	// Pattern is an integer communication-pattern time series (one value
	// per interval, Definition 1 of the paper). A cluster takes values
	// that fit an int32 (math.MinInt32 to math.MaxInt32): stations keep
	// each in an int32 cell, and a pattern holding any other value is
	// refused with ErrValueRange. Sums and accumulated values are taken in
	// 64 bits.
	Pattern = pattern.Pattern
	// Query is one pattern set to search for: the local patterns whose
	// element-wise sum is the global pattern that defines a match.
	Query = core.Query
	// QueryID identifies a query within a batch.
	QueryID = core.QueryID
	// PersonID identifies a mobile phone across the network.
	PersonID = core.PersonID
	// Params carries the WBF pipeline knobs (filter bits m, hashes k,
	// samples b, tolerance ε, seed).
	Params = core.Params
	// Result is one ranked answer: person, exact weight fraction, and the
	// number of stations that reported them.
	Result = core.Result
	// Confusion scores retrieved-vs-relevant sets (precision/recall/F1).
	Confusion = metrics.Confusion
)

// DefaultSamples is the paper's converged sample count b = 12.
const DefaultSamples = core.DefaultSamples

// Evaluate scores a retrieved person list against the relevant set.
func Evaluate(retrieved, relevant []PersonID) Confusion {
	return metrics.Evaluate(retrieved, relevant)
}

// Similar reports whether two patterns match within ε at every interval
// (Eq. 2 of the paper).
func Similar(a, b Pattern, eps int64) bool { return pattern.Similar(a, b, eps) }
