package dimatch

import (
	"dimatch/internal/cluster"
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
	// Options configures a cluster's search knobs (params, top-K, score
	// threshold, sizing); strategy, verification and routing are chosen per
	// call with a SearchOption.
	Options = cluster.Options
	// Member specifies one base station for NewCluster and AddStation: its
	// ID plus either an in-process station (seeded with Patterns, durable
	// through Store when set) or, with Link set, a remote station already
	// serving on the other end of the link (Patterns and Store nil). The
	// cluster takes ownership of Link and Store; a refused member has both
	// closed.
	Member = cluster.Member
	// SearchOption configures a single Search call.
	SearchOption = cluster.SearchOption
	// Strategy selects naive / BF / WBF execution.
	Strategy = cluster.Strategy
	// RoutingMode selects how a WBF search picks the stations it fans out
	// to: summary-routed pruning (the default) or classic full fan-out (see
	// docs/ROUTING.md).
	RoutingMode = cluster.RoutingMode
	// RoutingState reports the coordinator's routing-state footprint: the
	// number of cached per-station digests and their bytes, one digest per
	// station a routed search has fetched. The benchmark reports its total
	// as cluster.routing_state_bytes.
	RoutingState = cluster.RoutingState
	// Outcome is a search's ranked results plus cost accounting.
	Outcome = cluster.Outcome
	// CostReport quantifies a search's traffic, storage and latency.
	CostReport = cluster.CostReport
	// Confusion scores retrieved-vs-relevant sets (precision/recall/F1).
	Confusion = metrics.Confusion
	// ToleranceMode selects how ε maps into the accumulated domain.
	ToleranceMode = core.ToleranceMode
	// ClusterStats is a cluster-wide storage snapshot of the figures the
	// stations last reported over the wire.
	ClusterStats = cluster.Stats
	// StationStats is one station's resident count and storage bytes, as
	// reported by the station itself.
	StationStats = cluster.StationStats
	// PlaceOption configures a single Place call (see WithReplication).
	PlaceOption = cluster.PlaceOption
	// HealReport summarizes one re-replication/rebalancing pass over the
	// placed patterns (see Rebalance).
	HealReport = cluster.HealReport
	// Cluster is a running DI-matching deployment: one data center over its
	// member base stations. Its methods are documented on the aliased type:
	// go doc dimatch/internal/cluster Cluster.
	Cluster = cluster.Cluster
	// StreamOptions configures a streaming ingest pipeline (see
	// Cluster.Stream).
	StreamOptions = cluster.StreamOptions
	// Ingestor is a running streaming ingest pipeline (see Cluster.Stream).
	Ingestor = cluster.Ingestor
	// StreamStats is a streaming pipeline's admission and flush totals, as
	// Ingestor.Report returns them.
	StreamStats = cluster.StreamStats
)

// Strategies, re-exported.
const (
	StrategyNaive = cluster.StrategyNaive
	StrategyBF    = cluster.StrategyBF
	StrategyWBF   = cluster.StrategyWBF
)

// Routing modes, re-exported. RoutingSummary — the default — probes the
// coordinator's cached per-station summaries and skips stations that cannot
// hold a match, and on a clean replicated placement visits one replica per
// group; RoutingFull forces the classic every-station fan-out
// (docs/ROUTING.md).
const (
	RoutingSummary = cluster.RoutingSummary
	RoutingFull    = cluster.RoutingFull
)

// ParseRoutingMode is the inverse of RoutingMode.String: it maps "summary"
// and "full" (case-insensitively) to the routing constants — the
// canonical way for CLIs to turn a flag into a RoutingMode.
func ParseRoutingMode(s string) (RoutingMode, error) { return cluster.ParseRoutingMode(s) }

// ParseStrategy is the inverse of Strategy.String: it maps "naive", "bf" and
// "wbf" (case-insensitively) to the strategy constants — the canonical way
// for CLIs to turn a flag into a Strategy.
func ParseStrategy(s string) (Strategy, error) { return cluster.ParseStrategy(s) }

// Per-call search options, re-exported.

// WithStrategy selects the execution strategy (default StrategyWBF).
func WithStrategy(s Strategy) SearchOption { return cluster.WithStrategy(s) }

// WithVerify toggles the WBF verification phase for this call.
func WithVerify(v bool) SearchOption { return cluster.WithVerify(v) }

// WithRouting selects the fan-out routing mode for one WBF search (default
// RoutingSummary). Summary routing sends each query batch only to stations
// whose cached routing summary admits a possible match — one replica per
// group of placed copies, with the group's others asked if it fails —
// stations without a usable summary are always visited and an all-pruned
// plan falls back to full fan-out, so results and recall are identical to
// RoutingFull; only the wasted exchanges differ (CostReport.StationsPruned
// counts them, CostReport.SubtreeProbes the digest evaluations planning
// cost). BF and naive searches ignore the mode and always fan out fully. See
// docs/ROUTING.md.
func WithRouting(m RoutingMode) SearchOption { return cluster.WithRouting(m) }

// Sentinel errors returned by Search, re-exported for errors.Is checks.
var (
	// ErrNoQueries reports an empty query batch.
	ErrNoQueries = cluster.ErrNoQueries
	// ErrLengthMismatch reports a query whose time-series length does not
	// match the cluster's.
	ErrLengthMismatch = cluster.ErrLengthMismatch
	// ErrBadQueries reports a query set holding one query ID twice, or a
	// WBF search of more queries than one frame carries (4 096). Nothing
	// is exchanged.
	ErrBadQueries = cluster.ErrBadQueries
	// ErrClusterClosed reports a Search after Shutdown.
	ErrClusterClosed = cluster.ErrClusterClosed
	// ErrCancelled reports a cancelled or timed-out search; it wraps the
	// context's error.
	ErrCancelled = cluster.ErrCancelled
	// ErrUnknownStrategy reports a strategy outside the known set.
	ErrUnknownStrategy = cluster.ErrUnknownStrategy
	// ErrUnknownRouting reports a routing mode outside the known set.
	ErrUnknownRouting = cluster.ErrUnknownRouting
	// ErrUnknownStation reports a lifecycle call naming a non-member station.
	ErrUnknownStation = cluster.ErrUnknownStation
	// ErrStationExists reports a NewCluster or AddStation member id that is
	// already taken.
	ErrStationExists = cluster.ErrStationExists
	// ErrNoAliveStations reports a Place or Rebalance call on a cluster whose
	// member stations are all dead.
	ErrNoAliveStations = cluster.ErrNoAliveStations
	// ErrValueRange reports a pattern holding a value an int32 cannot
	// hold, given to Place, Ingest, Ingestor.Submit, NewCluster,
	// AddStation or a station's seed. Stations keep each value in an int32
	// cell, so the call is refused before any exchange and nothing of it is
	// placed or applied.
	ErrValueRange = cluster.ErrValueRange
)

// ErrStreamClosed reports a Submit or Flush on a closed Ingestor.
var ErrStreamClosed = cluster.ErrStreamClosed

// Tolerance modes, re-exported. ToleranceScaled guarantees no false
// negatives with respect to the per-interval ε; ToleranceAbsolute is the
// tighter, cheaper ablation.
const (
	ToleranceScaled   = core.ToleranceScaled
	ToleranceAbsolute = core.ToleranceAbsolute
)

// DefaultSamples is the paper's converged sample count b = 12.
const DefaultSamples = core.DefaultSamples

// DefaultReplication is the replica count Place uses when WithReplication is
// not given: every placed pattern survives any single station failure.
const DefaultReplication = cluster.DefaultReplication

// WithReplication sets how many stations receive a copy of each placed
// pattern (default DefaultReplication). The factor is clamped to the alive
// membership at execution time, but the requested value is recorded: when
// the cluster later grows, reconciliation tops placements back up.
func WithReplication(r int) PlaceOption { return cluster.WithReplication(r) }

// NewCluster builds and starts a cluster of patternLength-long patterns over
// the given members: in-process stations (seeded, or empty for a
// placement-first deployment where every pattern arrives through Place or
// Ingest; durable when a Store is set, recovering its residents first) and
// remote ones over established links, in any mix. Member ids must be
// distinct (ErrStationExists) and seed patterns patternLength long
// (ErrLengthMismatch). Every member, in-process or remote, passes
// AddStation's stats handshake, all at once, and NewCluster waits for them:
// one that does not answer within ten seconds, speaks another wire version
// or holds another pattern length (ErrLengthMismatch) is refused. A failed
// call closes every link and store it was handed. Callers own Shutdown.
func NewCluster(opts Options, patternLength int, members ...Member) (*Cluster, error) {
	return cluster.New(opts, patternLength, members...)
}

// Members turns station-major data (as StationData returns) into one
// in-process member per station.
func Members(stationData map[uint32]map[PersonID]Pattern) []Member {
	return cluster.Members(stationData)
}

// Oracle computes the exact IPM answer directly from raw station data — the
// ground truth that StrategyNaive reproduces through the distributed
// pipeline.
func Oracle(stationData map[uint32]map[PersonID]Pattern, query Query, eps int64, topK int) ([]PersonID, error) {
	return cluster.Oracle(stationData, query, eps, topK)
}

// Evaluate scores a retrieved person list against the relevant set.
func Evaluate(retrieved, relevant []PersonID) Confusion {
	return metrics.Evaluate(retrieved, relevant)
}

// Similar reports whether two patterns match within ε at every interval
// (Eq. 2 of the paper).
func Similar(a, b Pattern, eps int64) bool { return pattern.Similar(a, b, eps) }
