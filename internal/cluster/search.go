package cluster

import (
	"errors"
	"fmt"
	"strings"

	"dimatch/internal/core"
)

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
	// RoutingTree keeps the per-station digests in a Bloofi-style digest tree
	// (internal/index/tree) and plans each search by descending it: a whole
	// subtree whose union digest denies every probe is pruned with one check
	// instead of one per station. Pruning stays exactly as conservative as
	// RoutingSummary — the tree's inner nodes are bitwise-OR unions, which
	// only ever over-admit — so results are identical; the mode trades a few
	// union probes for sublinear planning cost on large memberships. See
	// docs/ROUTING.md.
	RoutingTree
)

func (m RoutingMode) String() string {
	switch m {
	case RoutingSummary:
		return "summary"
	case RoutingFull:
		return "full"
	case RoutingTree:
		return "tree"
	default:
		return fmt.Sprintf("RoutingMode(%d)", int(m))
	}
}

// ParseRoutingMode is the inverse of RoutingMode.String: it maps "summary",
// "full" and "tree" (case-insensitively) to the routing constants.
func ParseRoutingMode(s string) (RoutingMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "summary":
		return RoutingSummary, nil
	case "full":
		return RoutingFull, nil
	case "tree":
		return RoutingTree, nil
	default:
		return 0, fmt.Errorf("%w: %q (want summary, full or tree)", ErrUnknownRouting, s)
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
// searches already move one frame per station and ignore the setting. See
// Options.BatchSize for the cluster default.
func WithBatching(n int) SearchOption {
	return func(c *searchConfig) { c.batchSize = n }
}

// WithRouting selects the fan-out routing mode for this call (default
// RoutingSummary, or the cluster's Options.Routing). Routing applies to WBF
// searches only: BF and naive searches always fan out to every station —
// the naive strategy needs every store by definition, and the baseline is
// kept at the paper's cost model. Use WithRouting(RoutingFull) to force the
// classic full fan-out, e.g. to measure routing's saving or to sidestep
// summary refreshes in a mutation-heavy burst.
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

// searchDefaults resolves the cluster-level Options into a per-call config.
func (c *Cluster) searchDefaults() searchConfig {
	return searchConfig{
		strategy:  StrategyWBF,
		params:    c.opts.Params,
		topK:      c.opts.TopK,
		minScore:  c.opts.MinScore,
		verify:    c.opts.Verify,
		targetFP:  c.opts.TargetFP,
		batchSize: c.opts.BatchSize,
		routing:   c.opts.Routing,
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
