package dimatch

import (
	"context"

	"dimatch/internal/adapt"
	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/metrics"
	"dimatch/internal/pattern"
	"dimatch/internal/stream"
)

// Core vocabulary, aliased from the implementation packages so the public
// surface is a single import.
type (
	// Pattern is an integer communication-pattern time series (one value
	// per interval, Definition 1 of the paper).
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
	// SearchOption configures a single Search call.
	SearchOption = cluster.SearchOption
	// Strategy selects naive / BF / WBF execution.
	Strategy = cluster.Strategy
	// RoutingMode selects how a WBF search picks the stations it fans out
	// to: summary-routed pruning (the default), classic full fan-out, or
	// digest-tree descent (see docs/ROUTING.md).
	RoutingMode = cluster.RoutingMode
	// RoutingState reports the coordinator's routing-state footprint: cached
	// per-station digests plus the digest tree's inner nodes. It is the
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
	// ClusterStats is a cluster-wide storage snapshot fetched from the
	// stations over the wire, cached per membership epoch.
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
	// StreamAdmission selects what a saturated pipeline does with new
	// submissions: StreamBlock or StreamShed.
	StreamAdmission = stream.Admission
	// StreamStats is a streaming pipeline's health snapshot: admission,
	// flush and eviction totals plus per-station queue depths. Returned by
	// Ingestor.Report and surfaced (merged across pipelines) in
	// ClusterStats.Stream.
	StreamStats = metrics.StreamStats
	// StreamStationStats is one station shard's entry in StreamStats.
	StreamStationStats = metrics.StreamStationStats
	// ParamPlan is a traffic-adaptive digest parameter table: per-position
	// bit weights, hash counts and quanta, derived by RederiveParams and
	// rolled out under one epoch (see docs/OPERATIONS.md).
	ParamPlan = index.Plan
	// ParamRollout summarizes one parameter rollout: the installed epoch
	// and which stations applied the plan, stayed static, were skipped or
	// failed.
	ParamRollout = cluster.ParamRollout
	// TrafficProfile is the coordinator's accumulated per-position traffic
	// profile — the input RederiveParams derives a plan from.
	TrafficProfile = adapt.Snapshot
)

// Strategies, re-exported.
const (
	StrategyNaive = cluster.StrategyNaive
	StrategyBF    = cluster.StrategyBF
	StrategyWBF   = cluster.StrategyWBF
)

// Routing modes, re-exported. RoutingSummary — the default — probes the
// coordinator's cached per-station summaries and skips stations that cannot
// hold a match; RoutingFull forces the classic every-station fan-out
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
func WithTopK(k int) SearchOption { return cluster.WithTopK(k) }

// WithVerify toggles the WBF verification phase for this call.
func WithVerify(v bool) SearchOption { return cluster.WithVerify(v) }

// WithMinScore drops WBF and naive results scoring below the threshold.
func WithMinScore(s float64) SearchOption { return cluster.WithMinScore(s) }

// WithTargetFP overrides the auto-sizing false-positive target.
func WithTargetFP(fp float64) SearchOption { return cluster.WithTargetFP(fp) }

// WithBatching bounds how many queries a WBF search packs into one round.
// n <= 0 (the default) packs the whole query set into a single exchange per
// station; n >= 1 splits it into rounds of at most n queries, each with its
// own combined filter. Batching changes traffic and latency; true matches
// rank identically at every batch size, though with auto-sized filters
// (Params.Bits == 0) the per-round sizing can shift which rare Bloom false
// positives slip through.
func WithBatching(n int) SearchOption { return cluster.WithBatching(n) }

// WithRouting selects the fan-out routing mode for one WBF search (default
// RoutingSummary). Summary routing sends each query batch only to stations
// whose cached routing summary admits a possible match — stations without a
// usable summary are always visited and an all-pruned plan falls back to
// full fan-out, so results and recall are identical to RoutingFull; only the
// wasted exchanges differ (CostReport.StationsPruned counts them,
// CostReport.SubtreeProbes the digest evaluations planning cost). BF and
// naive searches ignore the mode and always fan out fully. Against region
// coordinators (see ServeRegion) summary routing additionally prunes whole
// regions by their subtree union digests before delegating. See
// docs/ROUTING.md.
func WithRouting(m RoutingMode) SearchOption { return cluster.WithRouting(m) }

// Sentinel errors returned by Search, re-exported for errors.Is checks.
var (
	// ErrNoQueries reports an empty query batch.
	ErrNoQueries = cluster.ErrNoQueries
	// ErrLengthMismatch reports a query whose time-series length does not
	// match the cluster's.
	ErrLengthMismatch = cluster.ErrLengthMismatch
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
	// ErrStationExists reports an AddStation id that is already a member.
	ErrStationExists = cluster.ErrStationExists
	// ErrNoAliveStations reports a Place or Rebalance call on a cluster whose
	// member stations are all dead.
	ErrNoAliveStations = cluster.ErrNoAliveStations
)

// Streaming admission modes, re-exported. StreamBlock (the default) makes a
// saturated pipeline's Submit wait for queue space — backpressure on the
// producer; StreamShed makes it drop the submission with ErrOverloaded, the
// drop accounted in StreamStats.Shed.
const (
	StreamBlock = stream.Block
	StreamShed  = stream.Shed
)

// Streaming sentinel errors, re-exported for errors.Is checks.
var (
	// ErrOverloaded reports a shed-mode Submit that found the pipeline's
	// intake queue full; the submission was dropped and accounted.
	ErrOverloaded = stream.ErrOverloaded
	// ErrStreamClosed reports a Submit or Flush on a closed Ingestor.
	ErrStreamClosed = stream.ErrClosed
)

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

// Cluster is a running DI-matching deployment: one data center plus one
// goroutine-backed base station per entry of the station data map.
type Cluster struct {
	inner *cluster.Cluster
}

// NewCluster builds and starts a cluster over per-station local patterns.
// All patterns must share one time-series length. Callers own Shutdown.
func NewCluster(opts Options, stationData map[uint32]map[PersonID]Pattern) (*Cluster, error) {
	inner, err := cluster.New(opts, stationData)
	if err != nil {
		return nil, err
	}
	inner.Start()
	return &Cluster{inner: inner}, nil
}

// NewEmptyCluster builds and starts a cluster of stations holding no
// patterns yet — the starting point of a placement-first deployment, where
// every pattern arrives through Place (or Ingest) on the running cluster.
// The pattern length New would otherwise derive from seed data must be
// given. Callers own Shutdown.
func NewEmptyCluster(opts Options, stationIDs []uint32, patternLength int) (*Cluster, error) {
	inner, err := cluster.NewEmpty(opts, stationIDs, patternLength)
	if err != nil {
		return nil, err
	}
	inner.Start()
	return &Cluster{inner: inner}, nil
}

// Search runs one batch of queries and returns ranked results and cost
// accounting. With no options it runs a WBF search under the cluster's
// Options; per-call options (WithStrategy, WithTopK, WithVerify,
// WithMinScore, WithTargetFP) override those defaults for this call only.
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
// Pattern lengths must match the cluster's (ErrLengthMismatch otherwise);
// all-zero patterns are dropped by the station.
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
// copied to the stations that win the rendezvous (HRW) hash of (person,
// station) over the alive membership — WithReplication many of them, default
// DefaultReplication. Placed patterns are replica-managed from then on:
// search aggregation dedupes their replicas' reports (highest score wins), a
// replica lost mid-search is covered by the survivors, and membership
// changes trigger re-replication and rebalancing so the requested factor is
// maintained without the caller naming stations. A person must be either
// placed or station-addressed, never both; Unplace releases them back.
func (c *Cluster) Place(ctx context.Context, patterns map[PersonID]Pattern, opts ...PlaceOption) error {
	return c.inner.Place(ctx, patterns, opts...)
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

// AddStation grows a running cluster with a new in-process station holding
// the given local patterns (which may be empty). Searches already in flight
// complete against the membership they started with; later searches fan out
// to the new station too. Returns ErrStationExists if the id is taken and
// ErrLengthMismatch if a pattern's length differs from the cluster's.
func (c *Cluster) AddStation(ctx context.Context, id uint32, locals map[PersonID]Pattern) error {
	return c.inner.AddStation(ctx, id, locals)
}

// RemoveStation shrinks a running cluster: the station leaves the
// membership, receives a best-effort shutdown frame and its link is closed.
// A search in flight over the previous membership sees the departure as a
// failed exchange (CostReport.StationsFailed), never as an error.
func (c *Cluster) RemoveStation(ctx context.Context, id uint32) error {
	return c.inner.RemoveStation(ctx, id)
}

// Stats fetches every station's resident count and storage bytes over the
// wire. The snapshot is cached per membership epoch: repeated calls between
// mutations answer from the cache, and any mutation triggers a refetch.
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
// how many per-station digests are cached and their bytes. In a multi-tier
// deployment each coordinator holds state for its own members only — the
// sublinear per-coordinator figure TestTwoTierPlanningSublinearAt1024 pins.
func (c *Cluster) RoutingState() RoutingState { return c.inner.RoutingState() }

// RederiveParams derives a fresh adaptive digest parameter plan from the
// traffic profiled by routed searches since the last derivation and rolls
// it out to every plain station as one epoch-atomic fan-out. Each station
// redistributes its unchanged static memory budget toward the positions the
// traffic actually probes; results stay byte-identical to a never-adapted
// cluster and recall stays 1 — only who gets visited changes. Region
// delegates are skipped; a station that cannot honor the plan degrades to
// its exact static behavior. See docs/OPERATIONS.md, "Adaptive parameters".
func (c *Cluster) RederiveParams(ctx context.Context) (*ParamRollout, error) {
	return c.inner.RederiveParams(ctx)
}

// ResetParams rolls every station back to the static parameter table and
// clears the traffic profile — the freeze/revert path of the adaptive
// layer.
func (c *Cluster) ResetParams(ctx context.Context) (*ParamRollout, error) {
	return c.inner.ResetParams(ctx)
}

// ParamState returns the live parameter epoch and plan (0, nil before any
// rollout). Searches stamp the epoch they planned under into
// CostReport.ParamEpoch.
func (c *Cluster) ParamState() (uint64, *ParamPlan) { return c.inner.ParamState() }

// TrafficSnapshot returns the coordinator's current traffic profile — what
// RederiveParams would derive the next plan from.
func (c *Cluster) TrafficSnapshot() TrafficProfile { return c.inner.TrafficSnapshot() }

// Stream starts a streaming ingest pipeline over the cluster and returns
// its Ingestor: a pool of encoder workers routing each submitted pattern to
// per-station applier shards by rendezvous (HRW) placement, bounded queues
// with explicit admission control (StreamBlock waits, StreamShed drops with
// ErrOverloaded), and batched acknowledged flushes over the station links.
// Flushed patterns are replica-managed exactly like Place'd ones — searches
// dedupe their replica reports and membership changes re-replicate them —
// and StreamOptions.TTL adds deadline-wheel eviction so stations self-trim
// under sustained load. Any number of pipelines may run over one cluster;
// each registers its health into ClusterStats.Stream until closed. The
// caller owns Close, which drains accepted patterns before stopping.
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
