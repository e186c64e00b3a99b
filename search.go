package dimatch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"dimatch/internal/core"
	"dimatch/internal/wire"
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
	// ErrBadQueries is returned when a search's query set holds one query ID
	// twice, or when a WBF search holds more queries than one frame carries
	// (4 096). Nothing is exchanged.
	ErrBadQueries = errors.New("cluster: query set refused")
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
	// ErrStationExists is returned by NewCluster and AddStation when a member
	// id is already taken.
	ErrStationExists = errors.New("cluster: station already exists")
	// ErrNoAliveStations is returned by Place and Rebalance when every
	// member's link is down — there is nowhere to put (or pull) a copy.
	ErrNoAliveStations = errors.New("cluster: no alive stations")
	// ErrValueRange is returned by Place, Ingest, Ingestor.Submit,
	// NewCluster, AddStation and a station's seed for a pattern holding a
	// value an int32 cannot hold — the width of a station's cell; the call
	// is refused before any exchange and nothing of it is placed or applied.
	ErrValueRange = errors.New("cluster: pattern value outside int32")
)

// ParseStrategy is the inverse of Strategy.String: it maps "naive", "bf" and
// "wbf" (case-insensitively) to the strategy constants — the canonical way
// for CLIs to turn a flag into a Strategy.
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

// RoutingMode selects how a WBF search picks the stations it fans out to:
// summary-routed pruning (the default) or classic full fan-out (see
// docs/ROUTING.md).
type RoutingMode int

const (
	// RoutingSummary (the default) probes the coordinator's cached
	// per-station routing summaries and sends each query round only to
	// stations whose summary admits a possible match — and, on a clean
	// replicated placement, to one member per candidate replica group.
	// Stations without a usable summary — failed refreshes, probes over
	// budget — count as admitting, a plan that would prune everything falls
	// back to full fan-out, and a failed group member is covered by its
	// group, so routing never loses recall; it only skips exchanges that
	// provably cannot produce a report no other visited member also sends.
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
// and "full" (case-insensitively) to the routing constants — the canonical
// way for CLIs to turn a flag into a RoutingMode.
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
// params, topK and minScore, per-call SearchOptions the rest.
type searchConfig struct {
	strategy Strategy
	params   Params
	topK     int
	minScore float64
	verify   bool
	routing  RoutingMode
}

// capped reports whether a WBF search may answer from a person-ID prefix
// first: a ranked search with a top-k and no score band. MinScore's band
// admits sums above D, which the prefix rule's "nothing beats D" needs
// excluded.
func (cfg searchConfig) capped() bool {
	return cfg.topK > 0 && cfg.minScore <= 0
}

// SearchOption configures a single Search call.
type SearchOption func(*searchConfig)

// WithStrategy selects the execution strategy (default StrategyWBF).
func WithStrategy(s Strategy) SearchOption {
	return func(c *searchConfig) { c.strategy = s }
}

// WithVerify enables (or disables) the verification phase on WBF searches
// for this call (default off): the center fetches the ranked candidates'
// local patterns from the stations, materializes their globals and keeps
// only exact Eq. 2 matches. It trades a second, candidate-sized round trip
// (still far below the naive shipment) for eliminating residual false
// positives — the "aggregation and verification" step of the paper's
// Section I.
func WithVerify(v bool) SearchOption {
	return func(c *searchConfig) { c.verify = v }
}

// WithRouting selects the fan-out routing mode for this call (default
// RoutingSummary). Summary routing sends the query set only to stations
// whose cached routing summary admits a possible match — one replica per
// group of placed copies, with the group's others asked if it fails — so
// results and recall equal RoutingFull's and only the wasted exchanges
// differ (CostReport.StationsPruned counts them, CostReport.SubtreeProbes
// the digest evaluations planning cost). Routing applies to WBF searches
// only: BF and naive
// searches always fan out to every station — the naive strategy needs every
// store by definition, and the baseline is kept at the paper's cost model.
// Use WithRouting(RoutingFull) to force the classic full fan-out, e.g. to
// measure routing's saving or to sidestep summary refreshes in a
// mutation-heavy burst.
func WithRouting(m RoutingMode) SearchOption {
	return func(c *searchConfig) { c.routing = m }
}

// searchDefaults resolves the cluster-level Options into a per-call config;
// routing has no cluster-level default and starts from RoutingSummary.
func (c *Cluster) searchDefaults() searchConfig {
	return searchConfig{
		strategy: StrategyWBF,
		params:   c.opts.Params,
		topK:     c.opts.TopK,
		minScore: c.opts.MinScore,
	}
}

// resolveParams returns the search parameters, auto-sizing the filter to
// Options.TargetFP if Bits is unset. A target outside (0, 1)
// means the 0.01 default (core.SizedParams).
func (c *Cluster) resolveParams(cfg searchConfig, queries []Query) (Params, error) {
	p := cfg.params
	if p.Bits != 0 {
		return p, nil
	}
	return core.SizedParams(p, c.length, queries, c.opts.TargetFP)
}

// CostReport quantifies one search's traffic, storage and latency, feeding
// Figures 4b-4d. Counts are
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
	// StationRawBytes is the raw local-pattern storage across stations at
	// the paper's 8 bytes per value, identical for all strategies (their
	// own data) and not what the stations' int32 stores hold. It is the
	// sum of the figures the stations last reported themselves over the
	// wire (see Stats), so in-process and link-backed clusters measure the
	// same figure; a station whose link is down contributes 0.
	StationRawBytes uint64
	// Elapsed is the wall-clock search duration.
	Elapsed time.Duration
	// StationsFailed counts stations that did not answer (failure
	// injection or closed links).
	StationsFailed int
	// ReportsReceived counts candidate tuples received by the center.
	ReportsReceived int
	// TailRounds is 1 when a capped WBF search (Options.TopK, no MinScore)
	// had to re-send its frame over persons at or above its prefix bound
	// because the prefix could not fill every query's top-k at the top
	// score, else 0.
	TailRounds int
	// StationsPruned counts member stations the summary-routing step
	// excluded from this search's query fan-out: their cached summaries
	// admitted no possible match for any query of the batch, or another
	// member of their replica group answered for them (group routing). A
	// member asked after all, to cover a failed group member, leaves the
	// count, so visited = stations − pruned. Pruned stations are not failed
	// — they were never asked. Always 0 under RoutingFull, for BF/naive
	// searches, and when the routed plan fell back to full fan-out.
	StationsPruned int
	// SummaryRefreshes counts the KindSummary exchanges this search
	// triggered to (re)fill the coordinator's summary cache, and
	// SummaryBytesDown / SummaryBytesUp their traffic. Refresh traffic
	// fills cluster-level state shared by every search, so it is billed
	// here and NOT into the Bytes/Messages totals above; an operator weighs
	// these against the exchanges routing pruned (docs/OPERATIONS.md).
	SummaryRefreshes int
	SummaryBytesDown uint64
	SummaryBytesUp   uint64
	// SubtreeProbes counts the digest probes of the flat scan: one
	// membership evaluation per (probe, digest) pair the routing plan
	// performed. It grows linearly with the membership.
	SubtreeProbes uint64
}

// TotalBytes returns the search's dissemination plus report traffic.
// Summary-refresh traffic is billed separately (SummaryBytesDown/Up): it
// fills a cluster-level cache shared by every search.
func (c CostReport) TotalBytes() uint64 { return c.BytesDown + c.BytesUp }

// Outcome is one search's full result: its ranked results plus cost
// accounting.
type Outcome struct {
	Strategy Strategy
	// PerQuery maps each query to its ranked results. For StrategyBF the
	// center cannot attribute candidates to queries (no weights), so every
	// query receives the same candidate list ranked by reporting-station
	// count — the baseline's fundamental weakness.
	PerQuery map[QueryID][]Result
	Cost     CostReport
}

// Persons returns the ranked person IDs for one query.
func (o *Outcome) Persons(q QueryID) []PersonID {
	rs := o.PerQuery[q]
	out := make([]PersonID, len(rs))
	for i, r := range rs {
		out[i] = r.Person
	}
	return out
}

// Search runs one batch of queries and returns ranked results plus cost
// accounting. The variadic options choose this call's strategy (default
// StrategyWBF), verification (default off) and routing (default
// RoutingSummary); top-K, score threshold and filter parameters come from
// the cluster Options.
//
// Search honors ctx: cancellation or timeout abandons the in-flight fan-out
// round and returns an error wrapping both ErrCancelled and ctx.Err(),
// leaving the links usable for subsequent searches. Any number of Search
// calls may run concurrently over one cluster — each link serializes
// outgoing frames and routes replies back to the owning search by wire
// request ID — and concurrent mutations are safe: the search pins the
// membership epoch current at its start and every fan-out round covers
// exactly that station set.
func (c *Cluster) Search(ctx context.Context, queries []Query, opts ...SearchOption) (*Outcome, error) {
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
	if cfg.strategy == StrategyWBF && len(queries) > wire.MaxBatchQueries {
		return nil, fmt.Errorf("%w: %d WBF queries, one frame carries at most %d", ErrBadQueries, len(queries), wire.MaxBatchQueries)
	}
	ids := make(map[QueryID]bool, len(queries))
	for _, q := range queries {
		if err := q.Validate(); err != nil {
			return nil, err
		}
		if q.Length() != c.length {
			return nil, fmt.Errorf("%w: query %d length %d, cluster is %d", ErrLengthMismatch, q.ID, q.Length(), c.length)
		}
		if ids[q.ID] {
			return nil, fmt.Errorf("%w: query ID %d appears twice", ErrBadQueries, q.ID)
		}
		ids[q.ID] = true
	}
	ep, gen, err := c.pinEpoch()
	if err != nil {
		return nil, err
	}
	defer c.leaveSearch(gen)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, err)
	}

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
	out.Cost.Elapsed = time.Since(start)
	out.Cost.StationRawBytes = c.stats(ep).TotalStorageBytes()
	return out, nil
}
