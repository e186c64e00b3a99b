package dimatch

import (
	"context"

	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/metrics"
	"dimatch/internal/pattern"
	"dimatch/internal/stream"
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
	// Options configures a cluster's default search knobs (params, top-K,
	// sizing); every knob can be overridden per call with a SearchOption.
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
	// number of cached per-station digests and their bytes. It is the
	// per-coordinator figure TestTwoTierPlanningSublinearAt1024 bounds.
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
	// StreamOptions configures a streaming ingest pipeline (see Stream).
	StreamOptions = stream.Options
	// Ingestor is a running streaming ingest pipeline (see Stream).
	Ingestor = stream.Ingestor
	// StreamStats is a streaming pipeline's admission and flush totals, as
	// Ingestor.Report returns them.
	StreamStats = stream.Stats
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

// Per-call search options, re-exported. Each overrides the corresponding
// cluster Options default for one Search call.

// WithStrategy selects the execution strategy (default StrategyWBF).
func WithStrategy(s Strategy) SearchOption { return cluster.WithStrategy(s) }

// WithTopK limits each query's answer; <= 0 returns all qualified persons.
// A WBF search with k > 0 and no MinScore asks the stations first only for
// persons below a learned person-ID bound, with a tail round over the rest
// when that prefix cannot fill every query's k at the top score; the answer
// equals the uncapped answer's first k (CostReport.TailRounds counts the
// tail rounds).
func WithTopK(k int) SearchOption { return cluster.WithTopK(k) }

// WithVerify toggles the WBF verification phase for this call.
func WithVerify(v bool) SearchOption { return cluster.WithVerify(v) }

// WithMinScore drops WBF and naive results scoring below the threshold.
func WithMinScore(s float64) SearchOption { return cluster.WithMinScore(s) }

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
var ErrStreamClosed = stream.ErrClosed

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

// Cluster is a running DI-matching deployment: one data center over its
// member base stations.
type Cluster struct {
	inner *cluster.Cluster
}

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
	inner, err := cluster.New(opts, patternLength, members...)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// Members turns station-major data (as StationData returns) into one
// in-process member per station.
func Members(stationData map[uint32]map[PersonID]Pattern) []Member {
	return cluster.Members(stationData)
}

// Search runs one batch of queries and returns ranked results and cost
// accounting. With no options it runs a WBF search under the cluster's
// Options; per-call options (WithStrategy, WithTopK, WithVerify,
// WithMinScore, WithRouting) override those defaults for this call only.
//
// Search honors ctx — cancellation or timeout abandons the in-flight
// fan-out round and returns an error wrapping ErrCancelled and ctx.Err()
// without disturbing the station links — and any number of Search calls may
// run concurrently over one cluster: each link serializes outgoing frames
// and routes replies back to the owning search by wire request ID.
func (c *Cluster) Search(ctx context.Context, queries []Query, opts ...SearchOption) (*Outcome, error) {
	return c.inner.Search(ctx, queries, opts...)
}

// Ingest adds (or replaces) resident patterns at one station of a running
// cluster — the center routing freshly observed call data to the station
// that saw it. The mutation travels the station's own request/reply loop,
// so it applies between exchanges and never races an in-flight search.
// Pattern lengths must match the cluster's (ErrLengthMismatch otherwise) and
// values fit an int32 (ErrValueRange otherwise; nothing is
// sent); all-zero patterns are dropped by the station. A routed search never skips
// a station that received an Ingest as a redundant replica.
func (c *Cluster) Ingest(ctx context.Context, stationID uint32, patterns map[PersonID]Pattern) error {
	return c.inner.Ingest(ctx, stationID, patterns)
}

// Evict removes residents from one station of a running cluster — expired
// retention windows, opted-out subscribers, or data handed off elsewhere.
// Persons the station does not hold are ignored. Evict does not release a
// placed person from management — reconciliation will restore their evicted
// copy; use Unplace for that.
func (c *Cluster) Evict(ctx context.Context, stationID uint32, persons []PersonID) error {
	return c.inner.Evict(ctx, stationID, persons)
}

// Place ingests patterns under automatic placement: each person's pattern is
// copied to a chained replica group over the alive membership — the station
// that wins the rendezvous (HRW) hash of (person, station) and its
// successors by station ID, WithReplication many of them, default
// DefaultReplication. Placed patterns are replica-managed from then on:
// search aggregation dedupes their replicas' reports (highest score wins), a
// routed search visits one replica per group, a replica lost mid-search is
// covered by the others, and membership
// changes trigger re-replication and rebalancing so the requested factor is
// maintained without the caller naming stations. A person must be either
// placed or station-addressed, never both; Unplace releases them back.
//
// A pattern of a foreign length or holding a value an int32 cannot hold
// fails the whole call before any exchange
// (ErrLengthMismatch, ErrValueRange): nothing is placed.
//
// A partly failed call returns the failed station exchanges joined. A
// person who reached at least one station stays placed (reconciliation
// tops the missing copies up); a person who reached none is rolled back to
// their earlier placement, if any. The streaming ingestor retries exactly
// those persons, which the coordinator reports in ascending person order.
func (c *Cluster) Place(ctx context.Context, patterns map[PersonID]Pattern, opts ...PlaceOption) error {
	_, err := c.inner.Place(ctx, patterns, opts...)
	return err
}

// Unplace releases persons from automatic placement, evicting their replicas
// from every alive station. Persons that were never placed are ignored.
func (c *Cluster) Unplace(ctx context.Context, persons []PersonID) error {
	return c.inner.Unplace(ctx, persons)
}

// Rebalance runs one explicit reconciliation pass over the placed patterns
// and reports what it did. Membership changes (AddStation, RemoveStation,
// KillStation) already reconcile automatically; an explicit pass is useful
// after transient failures or to verify placement health.
func (c *Cluster) Rebalance(ctx context.Context) (HealReport, error) {
	return c.inner.Rebalance(ctx)
}

// Placed returns the number of persons under automatic placement.
func (c *Cluster) Placed() int { return c.inner.Placed() }

// AddStation grows a running cluster with one member: an in-process
// station (durable when m.Store is set — the rejoin path of a restarted
// station, whose heal pass re-replicates only the delta it missed while
// down) or a remote one over m.Link. Either must pass the stats handshake
// NewCluster also runs.
// Searches already in flight complete against the membership they started
// with; later searches fan out to the new station too. Returns
// ErrStationExists if the id is taken and ErrLengthMismatch if a seed,
// recovered or remote pattern's length differs from the cluster's; a
// refused member has its link and store closed before the call returns.
func (c *Cluster) AddStation(ctx context.Context, m Member) error {
	return c.inner.AddStation(ctx, m)
}

// RemoveStation shrinks a running cluster: the station leaves the
// membership, receives a best-effort shutdown frame and its link is closed.
// A search in flight over the previous membership sees the departure as a
// failed exchange (CostReport.StationsFailed), never as an error.
func (c *Cluster) RemoveStation(ctx context.Context, id uint32) error {
	return c.inner.RemoveStation(ctx, id)
}

// Stats reports every station's resident count and storage bytes as the
// station last reported them over the wire: at its join, then in its answer
// to every ingest or evict. It sends no frame, and fails with ErrCancelled
// when ctx is already done.
func (c *Cluster) Stats(ctx context.Context) (*ClusterStats, error) {
	return c.inner.Stats(ctx)
}

// Stations returns the number of member base stations.
func (c *Cluster) Stations() int { return c.inner.Stations() }

// PatternLength returns the cluster's time-series length.
func (c *Cluster) PatternLength() int { return c.inner.PatternLength() }

// KillStation severs one station, simulating a failure; searches continue
// degraded. Placed patterns the station held are re-replicated from their
// surviving replicas onto the remaining stations.
func (c *Cluster) KillStation(id uint32) error { return c.inner.KillStation(id) }

// Shutdown stops every station goroutine and waits for them.
func (c *Cluster) Shutdown() error { return c.inner.Shutdown() }

// RoutingState reports the coordinator's current routing-state footprint:
// how many per-station digests are cached and their bytes.
func (c *Cluster) RoutingState() RoutingState { return c.inner.RoutingState() }

// Stream starts a streaming ingest pipeline over the cluster and returns
// its Ingestor: one bounded intake queue, whose Submit waits for space
// (bounded by its ctx) while the queue is full, drained by one flusher into
// latest-wins batches that it hands to Place. Streamed patterns are
// therefore placed exactly like Place'd ones — searches dedupe their replica
// reports, membership changes re-replicate them and Unplace expires them.
// Any number of pipelines may run over one cluster; each reads its own
// totals through Ingestor.Report. The caller owns Close, which drains
// accepted patterns before stopping.
func (c *Cluster) Stream(opts StreamOptions) (*Ingestor, error) {
	return stream.New(c.inner, opts)
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

// Accumulate returns the prefix-sum representation (Eq. 3) that lets a
// single value carry both magnitude and time order.
func Accumulate(p Pattern) Pattern { return p.Accumulate() }
