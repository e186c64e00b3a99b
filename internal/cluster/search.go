package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"dimatch/internal/core"
)

// Strategy selects how a search is executed across the cluster.
type Strategy int

const (
	// StrategyNaive ships every station's data to the center and matches
	// there (the paper's Approach 1 / "Naïve" curve).
	StrategyNaive Strategy = iota + 1
	// StrategyBF runs DI-matching with a plain Bloom filter (the paper's
	// "BF" curve): stations report bare IDs, the center cannot verify them.
	StrategyBF
	// StrategyWBF runs full DI-matching with the Weighted Bloom Filter.
	StrategyWBF
)

func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategyBF:
		return "bf"
	case StrategyWBF:
		return "wbf"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Sentinel errors returned by Search. They wrap into the errors.Is chain so
// callers can branch without string matching.
var (
	// ErrNoQueries is returned when Search is called with an empty batch.
	ErrNoQueries = errors.New("cluster: no queries")
	// ErrLengthMismatch is returned when a query's time-series length does
	// not match the cluster's.
	ErrLengthMismatch = errors.New("cluster: query length mismatch")
	// ErrClusterClosed is returned by Search after Shutdown.
	ErrClusterClosed = errors.New("cluster: cluster closed")
	// ErrCancelled is returned when the search's context is cancelled or
	// times out; it wraps the context's error.
	ErrCancelled = errors.New("cluster: search cancelled")
	// ErrUnknownStrategy is returned for a strategy outside the known set.
	ErrUnknownStrategy = errors.New("cluster: unknown strategy")
	// ErrUnknownRouting is returned for a routing mode outside the known set.
	ErrUnknownRouting = errors.New("cluster: unknown routing mode")
	// ErrUnknownStation is returned by lifecycle calls naming a station that
	// is not a member of the current epoch.
	ErrUnknownStation = errors.New("cluster: unknown station")
	// ErrStationExists is returned by AddStation/AddStationLink when the id
	// is already a member.
	ErrStationExists = errors.New("cluster: station already exists")
	// ErrNoAliveStations is returned by Place and Rebalance when every
	// member station is dead — there is nowhere to put (or pull) a copy.
	ErrNoAliveStations = errors.New("cluster: no alive stations")
)

// ParseStrategy is the inverse of Strategy.String: it maps "naive", "bf" and
// "wbf" (case-insensitively) to the strategy constants.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "naive":
		return StrategyNaive, nil
	case "bf":
		return StrategyBF, nil
	case "wbf":
		return StrategyWBF, nil
	default:
		return 0, fmt.Errorf("%w: %q (want naive, bf or wbf)", ErrUnknownStrategy, s)
	}
}

// RoutingMode selects how a WBF search picks the stations it fans out to.
type RoutingMode int

const (
	// RoutingSummary (the default) probes the coordinator's cached
	// per-station routing summaries and sends each query round only to
	// stations whose summary admits a possible match. Stations without a
	// usable summary — failed refreshes, probes over budget —
	// are always visited, and a plan that would prune everything falls back
	// to full fan-out, so routing never loses recall; it only skips
	// exchanges that provably cannot produce a report.
	RoutingSummary RoutingMode = iota
	// RoutingFull forces the classic full fan-out: every member station is
	// visited, no summaries are fetched or probed.
	RoutingFull
)

func (m RoutingMode) String() string {
	switch m {
	case RoutingSummary:
		return "summary"
	case RoutingFull:
		return "full"
	default:
		return fmt.Sprintf("RoutingMode(%d)", int(m))
	}
}

// ParseRoutingMode is the inverse of RoutingMode.String: it maps "summary"
// and "full" (case-insensitively) to the routing constants.
func ParseRoutingMode(s string) (RoutingMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "summary":
		return RoutingSummary, nil
	case "full":
		return RoutingFull, nil
	default:
		return 0, fmt.Errorf("%w: %q (want summary or full)", ErrUnknownRouting, s)
	}
}

// searchConfig is one search's resolved knobs: the cluster Options provide
// the defaults, per-call SearchOptions override them.
type searchConfig struct {
	strategy  Strategy
	params    core.Params
	topK      int
	minScore  float64
	verify    bool
	targetFP  float64
	batchSize int
	routing   RoutingMode
	// raw, set only by the region serve loop, skips ranking, verification,
	// topK and minScore: the search returns every accumulated partial sum,
	// person-ascending. A region answering a KindRouteQuery must not finalize
	// Algorithm 3 — the root holds partials from other regions, and deleting
	// or truncating here would change the merged outcome.
	raw bool
}

// SearchOption configures a single Search call.
type SearchOption func(*searchConfig)

// WithStrategy selects the execution strategy (default StrategyWBF).
func WithStrategy(s Strategy) SearchOption {
	return func(c *searchConfig) { c.strategy = s }
}

// WithTopK limits each query's answer; <= 0 returns all qualified persons.
func WithTopK(k int) SearchOption {
	return func(c *searchConfig) { c.topK = k }
}

// WithMinScore drops WBF and naive results scoring below the threshold
// (0 keeps everything). See Options.MinScore for the semantics.
func WithMinScore(s float64) SearchOption {
	return func(c *searchConfig) { c.minScore = s }
}

// WithVerify enables (or disables) the verification phase on WBF searches
// for this call. See Options.Verify for the semantics.
func WithVerify(v bool) SearchOption {
	return func(c *searchConfig) { c.verify = v }
}

// WithTargetFP overrides the false-positive sizing target used when
// Params.Bits is zero. Values <= 0 fall back to the default 0.01.
func WithTargetFP(fp float64) SearchOption {
	return func(c *searchConfig) { c.targetFP = fp }
}

// WithBatching bounds how many queries a WBF search packs into one round.
// n <= 0 (the default) packs the whole query set into a single
// KindBatchQuery exchange per station; n >= 1 splits the set into rounds of
// at most n queries, each with its own combined filter. BF and naive
// searches already move one frame per station and ignore the setting.
func WithBatching(n int) SearchOption {
	return func(c *searchConfig) { c.batchSize = n }
}

// WithRouting selects the fan-out routing mode for this call (default
// RoutingSummary). Routing applies to WBF searches only: BF and naive
// searches always fan out to every station — the naive strategy needs every
// store by definition, and the baseline is kept at the paper's cost model.
// Use WithRouting(RoutingFull) to force the classic full fan-out, e.g. to
// measure routing's saving or to sidestep summary refreshes in a
// mutation-heavy burst.
func WithRouting(m RoutingMode) SearchOption {
	return func(c *searchConfig) { c.routing = m }
}

// withParams installs the parent's already-resolved search parameters
// verbatim. The region serve loop uses it so every tier sizes filters from
// the same Params the root did — core.SizedParams is deterministic, but
// pinning the resolved values removes even the dependency on that.
func withParams(p core.Params) SearchOption {
	return func(c *searchConfig) { c.params = p }
}

// withRaw puts the search in raw (partial-sum) mode; see searchConfig.raw.
// Only the region serve loop sets it — exporting it would invite callers to
// skip Algorithm 3's deletion step and read unranked sums as answers.
func withRaw() SearchOption {
	return func(c *searchConfig) { c.raw = true }
}

// searchDefaults resolves the cluster-level Options into a per-call config;
// batching and routing have no cluster-level default and start from their
// zero values (one round, RoutingSummary).
func (c *Cluster) searchDefaults() searchConfig {
	return searchConfig{
		strategy: StrategyWBF,
		params:   c.opts.Params,
		topK:     c.opts.TopK,
		minScore: c.opts.MinScore,
		verify:   c.opts.Verify,
		targetFP: c.opts.TargetFP,
	}
}

// resolveParams returns the search parameters, auto-sizing the filter to the
// config's false-positive target if Bits is unset. Non-positive targets are
// clamped to the 0.01 default by the sizing math itself.
func (c *Cluster) resolveParams(cfg searchConfig, queries []core.Query) (core.Params, error) {
	p := cfg.params
	if p.Bits != 0 {
		return p, nil
	}
	return core.SizedParams(p, c.length, queries, cfg.targetFP)
}

// CostReport quantifies one search, feeding Figures 4b-4d. Counts are
// per-search: concurrent searches over the same cluster each see only their
// own traffic. Traffic covers completed exchanges; a station that fails
// mid-exchange is counted in StationsFailed, not in the byte tallies.
type CostReport struct {
	// BytesDown / MessagesDown is dissemination traffic (center→stations).
	BytesDown, MessagesDown uint64
	// BytesUp / MessagesUp is report traffic (stations→center).
	BytesUp, MessagesUp uint64
	// FilterBytes is the in-memory footprint of the disseminated filter
	// (zero for naive) — the extra storage every station must hold.
	FilterBytes uint64
	// CenterStorageBytes is what the data center must keep to answer the
	// query: the whole dataset for naive, the filter plus reports otherwise.
	CenterStorageBytes uint64
	// StationRawBytes is the raw local-pattern storage across stations,
	// identical for all strategies (their own data). The stations report it
	// themselves over the wire (cached per membership epoch), so in-process
	// and link-backed clusters measure the same figure; a station that fails
	// the stats exchange contributes 0.
	StationRawBytes uint64
	// Elapsed is the wall-clock search duration.
	Elapsed time.Duration
	// StationsFailed counts stations that did not answer (failure
	// injection or closed links).
	StationsFailed int
	// ReportsReceived counts candidate tuples received by the center.
	ReportsReceived int
	// Batches counts the rounds a WBF search sent to its directly searched
	// stations: ceil(queries / batch size), or 0 when every member is a
	// route delegate. 0 for BF/naive searches.
	Batches int
	// StationsPruned counts member stations the summary-routing step
	// excluded from this search's query fan-out: their cached summaries
	// admitted no possible match for any query of the batch. Pruned
	// stations are not failed — they were never asked. Always 0 under
	// RoutingFull, for BF/naive searches, and when the routed plan fell
	// back to full fan-out.
	StationsPruned int
	// SummaryRefreshes counts the KindSummary exchanges this search
	// triggered to (re)fill the coordinator's summary cache, and
	// SummaryBytesDown / SummaryBytesUp their traffic. Like the per-epoch
	// stats exchange, refresh traffic fills cluster-level state shared by
	// every search, so it is billed here and NOT into the Bytes/Messages
	// totals above; an operator weighs these against the exchanges routing
	// pruned (docs/OPERATIONS.md).
	SummaryRefreshes int
	SummaryBytesDown uint64
	SummaryBytesUp   uint64
	// SubtreeProbes counts digest-membership evaluations the routing plan
	// performed: one per (probe, digest) pair of the flat scan, at this
	// coordinator (the root's probes on region digests included) and, summed
	// in from their replies, at every region below it. It is the
	// planning-cost figure TestTwoTierPlanningSublinearAt1024 bounds: flat
	// planning grows linearly in the membership, two-tier planning
	// sublinearly.
	SubtreeProbes uint64
	// TierHops is the coordinator depth this WBF search traversed: 1 for a
	// flat cluster, 1 + the deepest delegate's own TierHops when route
	// delegates (regions) answered. 0 for BF/naive searches, which never
	// delegate.
	TierHops int
	// ParamEpoch is the adaptive parameter epoch live at this search's
	// start (see Cluster.RederiveParams), 0 while the cluster runs pure
	// static parameters. The search is pinned to it for observability: a
	// rollout completing mid-search changes station digests (each
	// self-describing and individually conservative), never this search's
	// results.
	ParamEpoch uint64
}

// TotalBytes returns the search's dissemination plus report traffic.
// Summary-refresh traffic is billed separately (SummaryBytesDown/Up): it
// fills a cluster-level cache shared by every search, like the per-epoch
// stats exchange.
func (c CostReport) TotalBytes() uint64 { return c.BytesDown + c.BytesUp }

// Outcome is one search's full result.
type Outcome struct {
	Strategy Strategy
	// PerQuery maps each query to its ranked results. For StrategyBF the
	// center cannot attribute candidates to queries (no weights), so every
	// query receives the same candidate list ranked by reporting-station
	// count — the baseline's fundamental weakness.
	PerQuery map[core.QueryID][]core.Result
	Cost     CostReport
}

// Persons returns the ranked person IDs for one query.
func (o *Outcome) Persons(q core.QueryID) []core.PersonID {
	rs := o.PerQuery[q]
	out := make([]core.PersonID, len(rs))
	for i, r := range rs {
		out[i] = r.Person
	}
	return out
}

// Search runs one batch of queries and returns ranked results plus cost
// accounting. The variadic options override the cluster's defaults for this
// call only (strategy, top-K, verification, score threshold, sizing target);
// with no options it runs a WBF search under the cluster Options.
//
// Search honors ctx: cancellation or timeout abandons the in-flight fan-out
// round and returns an error wrapping both ErrCancelled and ctx.Err(),
// leaving the links usable for subsequent searches. Any number of Search
// calls may run concurrently over one cluster, and concurrent mutations are
// safe: the search pins the membership epoch current at its start and every
// fan-out round covers exactly that station set.
func (c *Cluster) Search(ctx context.Context, queries []core.Query, opts ...SearchOption) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := c.searchDefaults()
	for _, o := range opts {
		o(&cfg)
	}
	if len(queries) == 0 {
		return nil, ErrNoQueries
	}
	for _, q := range queries {
		if err := q.Validate(); err != nil {
			return nil, err
		}
		if q.Length() != c.length {
			return nil, fmt.Errorf("%w: query %d length %d, cluster is %d", ErrLengthMismatch, q.ID, q.Length(), c.length)
		}
	}
	ep, err := c.pinEpoch()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, err)
	}

	// Pin the parameter epoch live at the search's start; a rollout landing
	// mid-search swaps digests (each self-describing), never results.
	paramEpoch, _ := c.ParamState()

	start := time.Now()
	var out *Outcome
	switch cfg.strategy {
	case StrategyWBF:
		out, err = c.searchWBF(ctx, ep, cfg, queries)
	case StrategyBF:
		out, err = c.searchBF(ctx, ep, cfg, queries)
	case StrategyNaive:
		out, err = c.searchNaive(ctx, ep, cfg, queries)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownStrategy, int(cfg.strategy))
	}
	if err != nil {
		return nil, err
	}

	out.Strategy = cfg.strategy
	out.Cost.ParamEpoch = paramEpoch
	// Elapsed is stamped before the stats lookup: storage bookkeeping must
	// not inflate the latency figures the benchmarks report.
	out.Cost.Elapsed = time.Since(start)
	// Best effort: station storage is the stations' own report (cached per
	// epoch); a search that already answered is not failed over
	// bookkeeping.
	if st, statsErr := c.epochStats(ctx, ep); statsErr == nil {
		out.Cost.StationRawBytes = st.TotalStorageBytes()
	}
	return out, nil
}
