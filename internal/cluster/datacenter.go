package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dimatch/internal/adapt"
	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/metrics"
	"dimatch/internal/pattern"
	"dimatch/internal/placement"
	"dimatch/internal/transport"
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

// Options configures a cluster's default search knobs. Every knob can be
// overridden per call with a SearchOption.
type Options struct {
	// Params carries the pipeline knobs (samples b, hashes k, ε, seed...).
	// If Params.Bits is zero the filter is auto-sized per search to TargetFP
	// over the estimated insertions — the same sizing for BF and WBF, so the
	// storage comparison is apples to apples.
	Params core.Params
	// TopK limits each query's answer; <= 0 returns all qualified persons.
	TopK int
	// MinScore drops WBF and naive results scoring below the threshold
	// (0 keeps everything). A person whose local matches partition the
	// query's locals scores exactly 1, so thresholds near 1 select complete
	// matches. The BF baseline has no weights and cannot honor MinScore —
	// one of its fundamental weaknesses.
	MinScore float64
	// Verify enables the verification phase on WBF searches: the center
	// fetches the ranked candidates' local patterns from the stations,
	// materializes their globals and keeps only exact Eq. 2 matches. It
	// trades a second, candidate-sized round trip (still far below the
	// naive shipment) for eliminating residual false positives — the
	// "aggregation and verification" step of the paper's Section I.
	Verify bool
	// TargetFP is the sizing target used when Params.Bits == 0
	// (default 0.01).
	TargetFP float64
	// BatchSize bounds how many queries a WBF search packs into one round —
	// one combined filter and one exchange per visited station. 0 (the
	// default) packs the whole query set into a single round; n >= 1 splits
	// the set into rounds of at most n queries. Override per call with
	// WithBatching.
	BatchSize int
	// Routing selects the default fan-out routing for WBF searches. The
	// zero value, RoutingSummary, prunes stations whose cached routing
	// summary admits no possible match; RoutingFull keeps the classic
	// every-station fan-out; RoutingTree plans over the Bloofi digest tree.
	// Override per call with WithRouting.
	Routing RoutingMode
	// AdaptWindow is the traffic profiler's sliding window in observed
	// band probes: once that many accumulate, every counter halves, so the
	// profile tracks the recent mix instead of all history (see
	// internal/adapt and docs/OPERATIONS.md on sizing it). 0 keeps the
	// unbounded all-history profile.
	AdaptWindow int
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
	// performed: one per (probe, digest) pair under RoutingSummary's flat
	// scan, one per (probe, tree node) visited under RoutingTree's descent —
	// including union probes on pruned subtrees and the root's probes on
	// region digests. It is the planning-cost figure
	// TestTwoTierPlanningSublinearAt1024 bounds: flat planning grows linearly
	// in the membership, two-tier descent sublinearly.
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

// StationStats is one station's resident data, as reported by the station
// itself over the wire.
type StationStats struct {
	// Station is the reporting station's ID.
	Station uint32
	// Residents is the number of local patterns the station holds.
	Residents int
	// StorageBytes is the raw bytes those patterns occupy (8 per value).
	StorageBytes uint64
	// PatternLength is the time-series length the station serves (0 when it
	// holds no patterns).
	PatternLength int
	// Delegate reports whether the peer advertised wire.FlagRouteDelegate:
	// it is a region coordinator fronting a whole sub-cluster and accepts
	// KindRouteQuery rounds. A plain station would fail its serve loop on a
	// route query, so only flagged peers are delegated to.
	Delegate bool
}

// stationStats converts one stats reply into the snapshot's entry.
func stationStats(sr wire.StatsReply) StationStats {
	return StationStats{
		Station:       sr.Station,
		Residents:     int(sr.Residents),
		StorageBytes:  sr.StorageBytes,
		PatternLength: int(sr.Length),
		Delegate:      sr.Flags&wire.FlagRouteDelegate != 0,
	}
}

// Stats is a cluster-wide storage snapshot fetched from the stations over
// the wire (one KindStats exchange per station, cached per membership
// epoch). Stations appear in ascending-ID order; a station that failed the
// exchange is counted in StationsFailed and omitted from Stations.
type Stats struct {
	// Epoch is the membership epoch the snapshot belongs to; it advances on
	// every mutation (ingest, evict, add/remove station, failure injection).
	Epoch uint64
	// Stations holds the per-station figures, ascending by station ID.
	Stations []StationStats
	// StationsFailed counts stations that did not answer the exchange.
	StationsFailed int
	// Stream is the merged health snapshot of every streaming ingest
	// pipeline currently registered on the cluster (see
	// RegisterStreamStats): admission/flush/eviction totals plus
	// per-station queue depths. Unlike the storage figures above it is not
	// epoch-cached — every Stats call reads the pipelines live — and it is
	// nil when no pipeline is attached.
	Stream *metrics.StreamStats
}

// TotalResidents sums the resident counts across reporting stations.
func (s *Stats) TotalResidents() int {
	n := 0
	for _, st := range s.Stations {
		n += st.Residents
	}
	return n
}

// TotalStorageBytes sums the raw pattern storage across reporting stations.
func (s *Stats) TotalStorageBytes() uint64 {
	var n uint64
	for _, st := range s.Stations {
		n += st.StorageBytes
	}
	return n
}

// epoch is one immutable snapshot of cluster membership. Every search pins
// the epoch current at its start and fans out over exactly that station
// set, so membership mutations can swap in the next epoch while searches
// are in flight without racing them. ids ascend; muxes is parallel.
type epoch struct {
	version uint64
	ids     []uint32
	muxes   []*transport.Mux

	// stats caches the stations' KindStats replies for this epoch. Every
	// mutation installs a fresh epoch, so a filled cache can never go
	// stale.
	statsMu sync.Mutex
	stats   *Stats // dimatch:guardedby statsMu
}

// find returns the index of id in the epoch's membership, or -1.
func (ep *epoch) find(id uint32) int {
	i := sort.Search(len(ep.ids), func(i int) bool { return ep.ids[i] >= id })
	if i < len(ep.ids) && ep.ids[i] == id {
		return i
	}
	return -1
}

// cachedStats returns the epoch's stats snapshot, or nil before the first
// successful fetch.
func (ep *epoch) cachedStats() *Stats {
	ep.statsMu.Lock()
	defer ep.statsMu.Unlock()
	return ep.stats
}

// seedStats pre-fills the epoch's cache from a predecessor epoch's snapshot
// with one station's entry replaced (or inserted, keeping ascending order)
// by a fresh reply. A fetch that already won the race is left in place.
func (ep *epoch) seedStats(prev *Stats, fresh wire.StatsReply) {
	entry := stationStats(fresh)
	stations := make([]StationStats, 0, len(prev.Stations)+1)
	inserted := false
	for _, s := range prev.Stations {
		if s.Station == fresh.Station {
			continue
		}
		if !inserted && s.Station > fresh.Station {
			stations = append(stations, entry)
			inserted = true
		}
		stations = append(stations, s)
	}
	if !inserted {
		stations = append(stations, entry)
	}
	st := &Stats{Epoch: ep.version, Stations: stations}
	if missing := len(ep.ids) - len(stations); missing > 0 {
		st.StationsFailed = missing
	}
	ep.statsMu.Lock()
	if ep.stats == nil {
		ep.stats = st
	}
	ep.statsMu.Unlock()
}

// Cluster wires one data center to a set of base stations over metered,
// request-multiplexed links, each in-process station served by its own
// goroutine. Any number of Search calls may run concurrently: each link's
// mux serializes outgoing frames and routes replies back to the owning
// search by wire request ID.
//
// The cluster is live: Ingest and Evict mutate a station's resident
// patterns, AddStation/AddStationLink and RemoveStation grow and shrink the
// membership, all while searches are in flight. Membership lives in an
// epoch-versioned snapshot: an in-flight search works over the epoch it
// started with, a mutation installs the next one.
type Cluster struct {
	opts   Options
	length int

	downMeter *transport.Meter
	upMeter   *transport.Meter

	mu      sync.Mutex
	ep      *epoch          // dimatch:guardedby mu — searches pin a snapshot via pinEpoch, never read this live
	epochs  uint64          // dimatch:guardedby mu — version counter feeding ep.version
	pending []*Station      // dimatch:guardedby mu — in-process stations awaiting Start
	dead    map[uint32]bool // dimatch:guardedby mu
	started bool            // dimatch:guardedby mu
	closed  bool            // dimatch:guardedby mu

	// placeTab tracks persons under automatic placement (see Place); nil
	// until the first Place call, so station-addressed clusters pay nothing.
	// healMu serializes reconciliation passes.
	placeTab *placement.Table
	healMu   sync.Mutex

	// summaries is the routing-summary cache: one probeable digest per
	// station, filled lazily by routed searches and kept honest by the
	// mutation hooks (ingest delta-updates, evict and membership changes
	// invalidate). See route.go.
	summaries summaryCache

	// upward is the cached subtree digest a region coordinator serves to its
	// parent, keyed by the churn state it was built under. See
	// Cluster.routingDigest (region.go).
	upward upwardDigest

	// profiler accumulates the band-traffic profile the routing step
	// observes; RederiveParams turns it into an adaptive parameter plan
	// (params.go). Internally synchronized — searches feed it concurrently.
	profiler *adapt.Profiler
	// rolloutMu serializes whole parameter rollouts (RederiveParams,
	// ResetParams): held across the update fan-out, never by searches.
	// paramMu guards the live epoch/plan pair with short critical sections.
	rolloutMu  sync.Mutex
	paramMu    sync.Mutex
	paramEpoch uint64      // dimatch:guardedby paramMu
	paramPlan  *index.Plan // dimatch:guardedby paramMu

	// Streaming-pipeline hooks (see stream_hooks.go): membership-change
	// subscribers and registered health-snapshot providers. hookMu is
	// leaf-level — never held while c.mu is taken or a callback runs.
	hookMu      sync.Mutex
	memberSubs  map[uint64]func()                      // dimatch:guardedby hookMu
	streamStats map[uint64]func() *metrics.StreamStats // dimatch:guardedby hookMu
	hookSeq     uint64                                 // dimatch:guardedby hookMu

	wg       sync.WaitGroup
	serveMu  sync.Mutex
	serveErr []error // dimatch:guardedby serveMu
}

// New builds a cluster from per-station local data. All patterns must share
// one length. The cluster is inert until Start.
func New(opts Options, stationData map[uint32]map[core.PersonID]pattern.Pattern) (*Cluster, error) {
	if len(stationData) == 0 {
		return nil, errors.New("cluster: no stations")
	}
	if opts.TargetFP == 0 {
		opts.TargetFP = 0.01
	}
	c := &Cluster{
		opts:      opts,
		dead:      make(map[uint32]bool),
		downMeter: &transport.Meter{},
		upMeter:   &transport.Meter{},
	}
	ids := make([]uint32, 0, len(stationData))
	for id := range stationData {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	muxes := make([]*transport.Mux, 0, len(ids))
	fail := func(err error) (*Cluster, error) {
		for _, m := range muxes {
			_ = m.Close()
		}
		return nil, err
	}
	for _, id := range ids {
		locals := stationData[id]
		for _, l := range locals {
			if c.length == 0 {
				c.length = len(l)
			}
			if len(l) != c.length {
				return fail(fmt.Errorf("%w: station %d pattern length %d, want %d", ErrLengthMismatch, id, len(l), c.length))
			}
		}
		center, stationEnd := transport.Pipe(c.downMeter, c.upMeter)
		muxes = append(muxes, transport.NewMux(center))
		c.pending = append(c.pending, NewStation(id, locals, stationEnd))
	}
	if c.length == 0 {
		return fail(errors.New("cluster: stations hold no patterns"))
	}
	c.profiler = adapt.NewProfiler(c.length, opts.AdaptWindow)
	c.installEpochLocked(ids, muxes)
	return c, nil
}

// NewWithLinks builds a data center over externally established links (for
// example TCP connections to remote station processes). The caller supplies
// the shared pattern length and the meters its links record into (either
// may be nil). Start is a no-op — remote stations run their own Serve
// loops — and Shutdown sends each station a shutdown message and closes the
// links. The cluster takes ownership of the links: each is wrapped in a
// request mux, so callers must not Recv on them afterwards.
func NewWithLinks(opts Options, links map[uint32]transport.Link, patternLength int, downMeter, upMeter *transport.Meter) (*Cluster, error) {
	if len(links) == 0 {
		return nil, errors.New("cluster: no station links")
	}
	if patternLength <= 0 {
		return nil, fmt.Errorf("cluster: pattern length %d, want > 0", patternLength)
	}
	if opts.TargetFP == 0 {
		opts.TargetFP = 0.01
	}
	if downMeter == nil {
		downMeter = &transport.Meter{}
	}
	if upMeter == nil {
		upMeter = &transport.Meter{}
	}
	c := &Cluster{
		opts:      opts,
		length:    patternLength,
		dead:      make(map[uint32]bool),
		downMeter: downMeter,
		upMeter:   upMeter,
		// Remote stations run their own Serve loops: the cluster is live
		// from construction (Start stays an idempotent no-op), and stations
		// added later via AddStation are served immediately.
		started: true,
	}
	ids := make([]uint32, 0, len(links))
	for id := range links {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	muxes := make([]*transport.Mux, 0, len(ids))
	for _, id := range ids {
		muxes = append(muxes, transport.NewMux(links[id]))
	}
	c.profiler = adapt.NewProfiler(c.length, opts.AdaptWindow)
	c.installEpochLocked(ids, muxes)
	return c, nil
}

// installEpochLocked makes (ids, muxes) the live membership snapshot with a
// fresh, empty stats cache. Callers hold c.mu (or own the cluster
// exclusively during construction). Passing the previous epoch's slices
// unchanged is how ingest/evict/kill invalidate the stats cache without
// touching membership.
func (c *Cluster) installEpochLocked(ids []uint32, muxes []*transport.Mux) {
	c.epochs++
	c.ep = &epoch{version: c.epochs, ids: ids, muxes: muxes}
}

// currentEpoch returns the live membership snapshot.
func (c *Cluster) currentEpoch() *epoch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ep
}

// ServeStation runs a base station loop over an established link until the
// center sends a shutdown or the link closes — the body of a remote station
// process.
func ServeStation(id uint32, locals map[core.PersonID]pattern.Pattern, link transport.Link) error {
	return NewStation(id, locals, link).Serve()
}

// serveLocked launches one in-process station goroutine. Callers hold c.mu.
func (c *Cluster) serveLocked(s *Station) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if err := s.Serve(); err != nil {
			c.serveMu.Lock()
			c.serveErr = append(c.serveErr, err)
			c.serveMu.Unlock()
		}
	}()
}

// Start launches the station goroutines. It is idempotent.
func (c *Cluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return
	}
	c.started = true
	for _, s := range c.pending {
		c.serveLocked(s)
	}
	c.pending = nil
}

// Stations returns the number of member stations (dead or alive).
func (c *Cluster) Stations() int { return len(c.currentEpoch().ids) }

// PatternLength returns the cluster's time-series length.
func (c *Cluster) PatternLength() int { return c.length }

// KillStation severs one station's link, simulating a failure. The station
// stays a member — the data center is not told: subsequent (and in-flight)
// searches discover the failure when their exchange fails and count it in
// CostReport.StationsFailed. Use RemoveStation for a deliberate departure.
//
// When patterns are placed (see Place), the kill triggers a reconciliation
// pass: copies the dead station held are re-replicated from their surviving
// replicas onto the stations that now win the rendezvous hash, restoring the
// requested replication factor.
func (c *Cluster) KillStation(id uint32) error {
	c.mu.Lock()
	i := c.ep.find(id)
	if i < 0 {
		c.mu.Unlock()
		return fmt.Errorf("%w: station %d", ErrUnknownStation, id)
	}
	if c.dead[id] {
		c.mu.Unlock()
		return nil
	}
	c.dead[id] = true
	err := c.ep.muxes[i].Close()
	// Same membership, fresh epoch: cached stats must stop counting the
	// severed station.
	c.installEpochLocked(c.ep.ids, c.ep.muxes)
	c.mu.Unlock()
	c.summaries.invalidate(id)
	// Streaming pipelines re-key the dead station's shard before the heal:
	// queued copies must stop targeting a link that can no longer ack them.
	c.notifyMembership()
	c.heal(context.Background()) //dimatch:allow ctxflow — KillStation is a ctx-less fault-injection API; healing must outlive the injected fault
	return err
}

// shutdownGrace bounds how long a shutdown frame may take to be accepted
// before the link is closed out from under the station. A stalled link
// (dead TCP peer, abandoned send holding the mux's send slot) would
// otherwise block Shutdown or RemoveStation forever.
const shutdownGrace = 100 * time.Millisecond

// stopMux sends a best-effort shutdown frame — bounded by shutdownGrace and
// ctx — then closes the mux, which also unblocks any send stalled on it.
func stopMux(ctx context.Context, m *transport.Mux) {
	sent := make(chan struct{})
	go func() {
		_ = m.Send(wire.ShutdownMessage())
		close(sent)
	}()
	select {
	case <-sent:
	case <-time.After(shutdownGrace):
	case <-ctx.Done():
	}
	_ = m.Close()
}

// Shutdown stops all stations and waits for their goroutines to exit.
// Subsequent Search calls return ErrClusterClosed. The cluster lock is not
// held while frames are sent, so concurrent Search and KillStation calls
// cannot deadlock against a stalled station; each station gets a bounded
// grace to accept the shutdown frame, after which its link is closed (which
// also unblocks any send stalled on it).
func (c *Cluster) Shutdown() error {
	c.mu.Lock()
	c.closed = true
	var toStop []*transport.Mux
	for i, id := range c.ep.ids {
		if c.dead[id] {
			continue
		}
		c.dead[id] = true
		toStop = append(toStop, c.ep.muxes[i])
	}
	c.mu.Unlock()

	var stopWg sync.WaitGroup
	for _, m := range toStop {
		m := m
		stopWg.Add(1)
		go func() {
			defer stopWg.Done()
			stopMux(context.Background(), m) //dimatch:allow ctxflow — Shutdown tears the cluster down unconditionally; shutdownGrace bounds it instead of a ctx
		}()
	}
	stopWg.Wait()
	c.wg.Wait()
	c.serveMu.Lock()
	defer c.serveMu.Unlock()
	return errors.Join(c.serveErr...)
}

// ---- live mutation: ingest, evict, membership ----

// Ingest adds (or replaces) resident patterns at one station — the center
// routing freshly observed call data to the station that saw it. The
// mutation travels the same request/reply loop as queries, so the station
// applies it between exchanges and no search observes a half-applied store.
// Pattern lengths must match the cluster's. All-zero patterns are dropped
// by the station (no measurable activity means no local pattern).
func (c *Cluster) Ingest(ctx context.Context, stationID uint32, patterns map[core.PersonID]pattern.Pattern) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(patterns) == 0 {
		return nil
	}
	in := wire.Ingest{
		Persons: make([]core.PersonID, 0, len(patterns)),
		Locals:  make([]pattern.Pattern, 0, len(patterns)),
	}
	for p, pat := range patterns {
		if len(pat) != c.length {
			return fmt.Errorf("%w: ingest person %d pattern length %d, cluster is %d", ErrLengthMismatch, p, len(pat), c.length)
		}
		in.Persons = append(in.Persons, p)
	}
	sort.Slice(in.Persons, func(i, j int) bool { return in.Persons[i] < in.Persons[j] })
	for _, p := range in.Persons {
		in.Locals = append(in.Locals, patterns[p])
	}
	msg, err := wire.EncodeIngest(in)
	if err != nil {
		return err
	}
	if err := c.mutate(ctx, stationID, msg); err != nil {
		// The exchange failed, but the frame may still have been delivered
		// and applied (a lost ack, a deadline while awaiting it). A cached
		// digest missing an applied ingest would prune the station away
		// from its new residents — the one staleness direction that loses
		// recall — so the slot is invalidated on the error path too.
		c.summaries.invalidate(stationID)
		return err
	}
	// The station's routing summary grew: delta-update the cached digest
	// (Bloom inserts are monotone) so routed searches keep pruning without
	// a refresh round trip. See summaryCache.noteIngest for the staleness
	// contract.
	c.summaries.noteIngest(stationID, in.Locals)
	return nil
}

// Evict removes residents from one station — expired retention windows,
// opted-out subscribers, or data handed off elsewhere. Unknown persons are
// ignored. Like Ingest, the mutation serializes through the station's
// request/reply loop.
func (c *Cluster) Evict(ctx context.Context, stationID uint32, persons []core.PersonID) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(persons) == 0 {
		return nil
	}
	if err := c.mutate(ctx, stationID, wire.EncodeEvict(wire.Evict{Persons: persons})); err != nil {
		return err
	}
	// Bloom digests cannot delete: drop the cached summary and let the next
	// routed search refetch. Keeping the stale digest would only waste
	// probes, but it would also never shrink.
	c.summaries.invalidate(stationID)
	return nil
}

// mutate runs one acknowledged mutation exchange against a member station
// and, on success, installs a fresh epoch. When the outgoing epoch already
// holds a stats snapshot, the new epoch's cache is seeded from it with just
// the mutated station's entry refreshed (one extra single-station
// exchange), so churn workloads keep answering Stats — and the per-search
// StationRawBytes lookup — from cache instead of paying a full stats
// fan-out after every mutation.
func (c *Cluster) mutate(ctx context.Context, id uint32, msg wire.Message) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClusterClosed
	}
	i := c.ep.find(id)
	if i < 0 {
		c.mu.Unlock()
		return fmt.Errorf("%w: station %d", ErrUnknownStation, id)
	}
	mux := c.ep.muxes[i]
	c.mu.Unlock()

	reply, err := mux.Roundtrip(ctx, msg)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
		}
		return fmt.Errorf("cluster: station %d: %w", id, err)
	}
	if _, err := wire.DecodeAck(reply); err != nil {
		return fmt.Errorf("cluster: station %d: %w", id, err)
	}

	// The mutation is applied; the refresh below is best effort and must
	// not fail it — on any miss the new epoch simply starts with a cold
	// cache.
	var fresh *wire.StatsReply
	if reply, err := mux.Roundtrip(ctx, wire.StatsMessage()); err == nil {
		if sr, err := wire.DecodeStatsReply(reply); err == nil {
			fresh = &sr
		}
	}
	c.mu.Lock()
	if !c.closed {
		prev := c.ep
		c.installEpochLocked(prev.ids, prev.muxes)
		// Seed only while the station is still a member: a concurrent
		// RemoveStation must not resurrect its storage figures.
		if fresh != nil && c.ep.find(fresh.Station) >= 0 {
			if cached := prev.cachedStats(); cached != nil {
				c.ep.seedStats(cached, *fresh)
			}
		}
	}
	c.mu.Unlock()
	return nil
}

// AddStation grows the membership of a running cluster with a new
// in-process station holding the given local patterns (which may be empty).
// Searches already in flight complete against their own epoch; searches
// started after the call fan out to the new station too.
//
// When patterns are placed (see Place), the join triggers a reconciliation
// pass that rebalances exactly the placed patterns whose rendezvous winners
// changed — the new station takes over the placements it out-scores an
// incumbent for, and nothing else moves.
func (c *Cluster) AddStation(ctx context.Context, id uint32, locals map[core.PersonID]pattern.Pattern) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	for p, l := range locals {
		if len(l) != c.length {
			return fmt.Errorf("%w: station %d person %d pattern length %d, cluster is %d", ErrLengthMismatch, id, p, len(l), c.length)
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClusterClosed
	}
	if c.ep.find(id) >= 0 {
		c.mu.Unlock()
		return fmt.Errorf("%w: station %d", ErrStationExists, id)
	}
	center, stationEnd := transport.Pipe(c.downMeter, c.upMeter)
	st := NewStation(id, locals, stationEnd)
	if c.started {
		c.serveLocked(st)
	} else {
		c.pending = append(c.pending, st)
	}
	c.addMemberLocked(id, transport.NewMux(center))
	c.mu.Unlock()
	// A departed member may have left a digest under the same id; the new
	// station starts with a cold summary slot.
	c.summaries.invalidate(id)
	c.notifyMembership()
	c.heal(ctx)
	return nil
}

// AddStationLink grows the membership with a remote station reachable over
// an established link. The cluster takes ownership of the link immediately:
// it is wrapped in a request mux, and closed if the join fails. Joining
// performs a stats handshake — the station must answer, and if it already
// holds patterns their length must match the cluster's (ErrLengthMismatch
// otherwise).
func (c *Cluster) AddStationLink(ctx context.Context, id uint32, link transport.Link) error {
	if ctx == nil {
		ctx = context.Background()
	}
	mux := transport.NewMux(link)
	c.mu.Lock()
	closed, exists := c.closed, c.ep.find(id) >= 0
	c.mu.Unlock()
	if closed || exists {
		_ = mux.Close()
		if closed {
			return ErrClusterClosed
		}
		return fmt.Errorf("%w: station %d", ErrStationExists, id)
	}

	reply, err := mux.Roundtrip(ctx, wire.StatsMessage())
	if err != nil {
		_ = mux.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
		}
		return fmt.Errorf("cluster: station %d handshake: %w", id, err)
	}
	sr, err := wire.DecodeStatsReply(reply)
	if err != nil {
		_ = mux.Close()
		return fmt.Errorf("cluster: station %d handshake: %w", id, err)
	}
	if sr.Length != 0 && int(sr.Length) != c.length {
		_ = mux.Close()
		return fmt.Errorf("%w: station %d pattern length %d, cluster is %d", ErrLengthMismatch, id, sr.Length, c.length)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = mux.Close()
		return ErrClusterClosed
	}
	if c.ep.find(id) >= 0 {
		c.mu.Unlock()
		_ = mux.Close()
		return fmt.Errorf("%w: station %d", ErrStationExists, id)
	}
	c.addMemberLocked(id, mux)
	c.mu.Unlock()
	c.summaries.invalidate(id)
	c.notifyMembership()
	c.heal(ctx)
	return nil
}

// addMemberLocked installs a new epoch with id inserted in order. Callers
// hold c.mu and have verified id is not a member.
func (c *Cluster) addMemberLocked(id uint32, mux *transport.Mux) {
	i := sort.Search(len(c.ep.ids), func(i int) bool { return c.ep.ids[i] >= id })
	ids := make([]uint32, 0, len(c.ep.ids)+1)
	ids = append(append(append(ids, c.ep.ids[:i]...), id), c.ep.ids[i:]...)
	muxes := make([]*transport.Mux, 0, len(c.ep.muxes)+1)
	muxes = append(append(append(muxes, c.ep.muxes[:i]...), mux), c.ep.muxes[i:]...)
	c.installEpochLocked(ids, muxes)
}

// RemoveStation shrinks the membership of a running cluster: the station
// leaves the next epoch, receives a best-effort shutdown frame (bounded by
// ctx and a grace period) and its link is closed. A search already in
// flight over a previous epoch sees the closure as a failed exchange and
// counts it in CostReport.StationsFailed — removal is never a search error.
// When patterns are placed (see Place), the departure triggers a
// reconciliation pass that re-replicates the copies the station held from
// their surviving replicas onto the new rendezvous winners.
func (c *Cluster) RemoveStation(ctx context.Context, id uint32) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClusterClosed
	}
	i := c.ep.find(id)
	if i < 0 {
		c.mu.Unlock()
		return fmt.Errorf("%w: station %d", ErrUnknownStation, id)
	}
	mux := c.ep.muxes[i]
	wasDead := c.dead[id]
	delete(c.dead, id)
	ids := make([]uint32, 0, len(c.ep.ids)-1)
	ids = append(append(ids, c.ep.ids[:i]...), c.ep.ids[i+1:]...)
	muxes := make([]*transport.Mux, 0, len(c.ep.muxes)-1)
	muxes = append(append(muxes, c.ep.muxes[:i]...), c.ep.muxes[i+1:]...)
	c.installEpochLocked(ids, muxes)
	// A pending (never-started) in-process station must not be launched
	// after its link is gone.
	for j, s := range c.pending {
		if s.ID() == id {
			c.pending = append(c.pending[:j], c.pending[j+1:]...)
			break
		}
	}
	c.mu.Unlock()
	c.summaries.invalidate(id)
	// Re-key before the link goes down: a streaming applier still targeting
	// the departed station drains its queue onto the survivors, and only
	// then does the station receive its shutdown frame.
	c.notifyMembership()

	if !wasDead {
		stopMux(ctx, mux)
	}
	c.heal(ctx)
	return nil
}

// ---- stats ----

// Stats fetches every member station's resident count and storage bytes
// over the wire (KindStats). The result is cached on the membership epoch:
// repeated calls between mutations answer from the cache, and any mutation
// installs a fresh epoch whose first Stats refetches. Stations that fail
// the exchange are counted, not fatal.
func (c *Cluster) Stats(ctx context.Context) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClusterClosed
	}
	ep := c.ep
	c.mu.Unlock()
	st, err := c.epochStats(ctx, ep)
	if err != nil {
		return nil, err
	}
	// Hand out a copy: the cached snapshot is shared with concurrent
	// callers and with the per-search StationRawBytes tally. Stream health
	// is attached per call — pipelines mutate continuously, so caching it
	// on the epoch would freeze the queue gauges between mutations.
	return &Stats{
		Epoch:          st.Epoch,
		Stations:       append([]StationStats(nil), st.Stations...),
		StationsFailed: st.StationsFailed,
		Stream:         c.streamHealth(),
	}, nil
}

// epochStats returns the epoch's cached stats, fetching them on first use.
// Concurrent first uses may fetch redundantly; all converge on one cached
// snapshot. Only a successful fetch is cached, so a cancelled caller does
// not poison the epoch.
func (c *Cluster) epochStats(ctx context.Context, ep *epoch) (*Stats, error) {
	ep.statsMu.Lock()
	if st := ep.stats; st != nil {
		ep.statsMu.Unlock()
		return st, nil
	}
	ep.statsMu.Unlock()

	st := &Stats{Epoch: ep.version}
	// Stats traffic is cluster bookkeeping: it crosses the shared link
	// meters but is billed to no search's CostReport.
	var scratch CostReport
	failed, err := c.fanOut(ctx, ep, wire.StatsMessage(), &scratch, func(reply wire.Message) error {
		sr, err := wire.DecodeStatsReply(reply)
		if err != nil {
			return err
		}
		st.Stations = append(st.Stations, stationStats(sr))
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.StationsFailed = len(failed)

	ep.statsMu.Lock()
	if ep.stats == nil {
		ep.stats = st
	} else {
		st = ep.stats
	}
	ep.statsMu.Unlock()
	return st, nil
}

// ---- search ----

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
	c.mu.Lock()
	closed := c.closed
	ep := c.ep
	c.mu.Unlock()
	if closed {
		return nil, ErrClusterClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, err)
	}

	// Pin the parameter epoch live at the search's start; a rollout landing
	// mid-search swaps digests (each self-describing), never results.
	paramEpoch, _ := c.ParamState()

	start := time.Now()
	var (
		out *Outcome
		err error
	)
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

// fanOut sends msg to every station of the pinned epoch concurrently and
// waits for each to answer or fail, invoking handle with each reply in
// station-ID order and returning the indexes (into ep.ids) of the stations
// that failed. Per-search traffic is tallied directly into cost, covering
// completed exchanges (request out, reply back); a station that dies
// mid-exchange contributes only to the failed list. Unlike shared-meter
// deltas, the tally is unaffected by other searches running concurrently on
// the same links.
//
// Stations that fail are reported, not fatal: the search degrades exactly
// as a real deployment would. Every station's reply is drained and
// accounted even if handle returns an error partway, so the failure count
// stays truthful; the first handle error is returned after the drain. A
// cancelled context abandons the round and returns an error wrapping
// ErrCancelled.
func (c *Cluster) fanOut(ctx context.Context, ep *epoch, msg wire.Message, cost *CostReport, handle func(reply wire.Message) error) (failed []int, err error) {
	muxes := ep.muxes
	type replyOrErr struct {
		reply wire.Message
		err   error
	}
	results := make([]replyOrErr, len(muxes))
	var wg sync.WaitGroup
	for i, mx := range muxes {
		i, mx := i, mx
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := mx.Roundtrip(ctx, msg)
			results[i] = replyOrErr{reply: reply, err: err}
		}()
	}
	wg.Wait()
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
	}
	allFailed := true
	for _, r := range results {
		if r.err == nil {
			allFailed = false
			break
		}
	}
	if allFailed && len(results) > 0 {
		// Distinguish a Shutdown racing this search from genuine total
		// station loss: the former must not read as an empty success.
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return nil, ErrClusterClosed
		}
	}

	var handleErr error
	for i, r := range results {
		if r.err != nil {
			failed = append(failed, i)
			continue
		}
		cost.BytesDown += uint64(msg.EncodedSize())
		cost.MessagesDown++
		cost.BytesUp += uint64(r.reply.EncodedSize())
		cost.MessagesUp++
		if handleErr == nil {
			handleErr = handle(r.reply)
		}
	}
	return failed, handleErr
}

// batchQueries splits the query set into rounds of at most size queries.
// size <= 0 means one round carrying everything, clamped to the wire
// protocol's per-frame query limit so arbitrarily large searches still
// encode (they just take multiple rounds).
func batchQueries(queries []core.Query, size int) [][]core.Query {
	if size <= 0 || size > wire.MaxBatchQueries {
		size = wire.MaxBatchQueries
	}
	if size >= len(queries) {
		return [][]core.Query{queries}
	}
	out := make([][]core.Query, 0, (len(queries)+size-1)/size)
	for len(queries) > size {
		out = append(out, queries[:size])
		queries = queries[size:]
	}
	return append(out, queries)
}

// searchWBF is the paper's DI-matching pipeline end to end, executed as a
// sequence of rounds. Each round packs up to batchSize queries into one
// combined filter and one KindBatchQuery exchange per visited station;
// every round's reports merge into one aggregation.
func (c *Cluster) searchWBF(ctx context.Context, ep *epoch, cfg searchConfig, queries []core.Query) (*Outcome, error) {
	out := &Outcome{PerQuery: make(map[core.QueryID][]core.Result, len(queries))}
	agg := core.NewBatchAggregator()
	// Replica-aware aggregation: placed persons' replicas report the same
	// pattern, so the best report wins instead of the weights summing — and
	// a replica that fails mid-fan-out is covered by any survivor.
	agg.SetReplicated(c.replicatedPred())
	// The hierarchical tier: peers that advertised wire.FlagRouteDelegate are
	// region coordinators fronting whole sub-clusters. They are split out of
	// the batched rounds — each receives the entire query set as one
	// KindRouteQuery and answers raw partial sums — and their digests are
	// never cached: a region's membership churns invisibly to this
	// coordinator, so every search refetches (see docs/ROUTING.md).
	plainEp, delegates := c.splitDelegates(ctx, ep)
	// The routing step: probe the per-station summaries (flat scan or Bloofi
	// tree descent) and restrict the query fan-out to stations that might
	// answer. Verification below still uses the full epoch — a candidate's
	// locals can live on stations that hold no within-band resident, and the
	// verify fetch must see them all.
	routeEp := plainEp
	if cfg.routing != RoutingFull {
		routeEp = c.planRoute(ctx, plainEp, cfg, queries, &out.Cost)
	}
	var reportBytes, filterBytes uint64
	failedStations := make(map[uint32]bool)
	for _, batch := range batchQueries(queries, cfg.batchSize) {
		if err := c.runWBFRound(ctx, routeEp, cfg, batch, agg, out, &reportBytes, &filterBytes, failedStations); err != nil {
			return nil, err
		}
	}
	maxHops, err := c.fanDelegates(ctx, delegates, cfg, queries, agg, out, failedStations)
	if err != nil {
		return nil, err
	}
	out.Cost.TierHops = 1 + maxHops
	for _, q := range queries {
		if cfg.raw {
			out.PerQuery[q.ID] = rawResults(agg, q.ID)
		} else {
			out.PerQuery[q.ID] = rankWBF(cfg, agg, q.ID)
		}
	}
	out.Cost.StationsFailed += len(failedStations)
	out.Cost.FilterBytes = filterBytes
	out.Cost.CenterStorageBytes = filterBytes + reportBytes
	if cfg.verify && !cfg.raw {
		if err := c.verifyWBF(ctx, ep, cfg, queries, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// splitDelegates partitions the pinned epoch into its plain stations and its
// route delegates. Delegation is gated on the stats-reply capability flag: a
// plain station would fail its serve loop on a KindRouteQuery, so only peers
// that explicitly advertised wire.FlagRouteDelegate leave the batch rounds.
// A peer whose stats never arrived stays plain — it is sent batch frames,
// which every delegate also accepts (regions forward them to their
// stations), so misclassification degrades cost, never correctness.
func (c *Cluster) splitDelegates(ctx context.Context, ep *epoch) (*epoch, []delegatePeer) {
	st, err := c.epochStats(ctx, ep)
	if err != nil || st == nil {
		return ep, nil
	}
	flags := make(map[uint32]bool, len(st.Stations))
	any := false
	for _, s := range st.Stations {
		if s.Delegate {
			flags[s.Station] = true
			any = true
		}
	}
	if !any {
		return ep, nil
	}
	plain := &epoch{version: ep.version}
	var delegates []delegatePeer
	for i, id := range ep.ids {
		if flags[id] {
			delegates = append(delegates, delegatePeer{id: id, mux: ep.muxes[i]})
			continue
		}
		plain.ids = append(plain.ids, id)
		plain.muxes = append(plain.muxes, ep.muxes[i])
	}
	return plain, delegates
}

// delegatePeer is one route delegate of the pinned epoch: a region
// coordinator addressed like a station but spoken to in KindRouteQuery.
type delegatePeer struct {
	id  uint32
	mux *transport.Mux
}

// rawResults returns every accumulated partial for one query, person
// ascending — the region's answer shape. No Algorithm 3 deletion, no topK,
// no score band: finalizing is the root's job, after every region's partials
// have merged.
func rawResults(agg *core.Aggregator, q core.QueryID) []core.Result {
	results := agg.Results(q)
	sort.Slice(results, func(i, j int) bool { return results[i].Person < results[j].Person })
	return results
}

// fanDelegates runs the hierarchical tier of one WBF search: every route
// delegate receives the whole query set as a single KindRouteQuery and
// answers its region's raw per-person partial sums, which merge into the
// shared aggregation exactly as AddFrom would one tier down (core's Merge).
//
// Under summary or tree routing the root first pulls each delegate's
// aggregate digest — the bitwise-OR union of its whole subtree — and skips
// regions whose digest denies every probe. The pruning is conservative at
// this tier too: a failed or geometry-foreign digest fetch leaves the region
// visited, unselective probes visit everything, and an all-pruned delegate
// tier falls back to full fan-out, mirroring planRoute's rule. Digest
// traffic is billed to the Summary* counters; the route exchange itself to
// the search's Bytes/Messages totals. A delegate whose exchange fails is
// counted in failedStations exactly like a station.
func (c *Cluster) fanDelegates(ctx context.Context, delegates []delegatePeer, cfg searchConfig, queries []core.Query, agg *core.Aggregator, out *Outcome, failedStations map[uint32]bool) (maxHops int, err error) {
	if len(delegates) == 0 {
		return 0, nil
	}
	params, err := c.resolveParams(cfg, queries)
	if err != nil {
		return 0, err
	}
	routeMsg, err := wire.EncodeRouteQuery(wire.RouteQuery{
		Queries:   queries,
		Params:    cfg.params,
		TargetFP:  cfg.targetFP,
		BatchSize: cfg.batchSize,
		Routing:   uint8(cfg.routing),
	})
	if err != nil {
		return 0, err
	}

	// The pruning probes: same construction as planRoute's, probing each
	// region's union digest instead of per-station ones.
	var probes []index.Probe
	if cfg.routing != RoutingFull {
		for _, q := range queries {
			probe, perr := index.NewProbe(q, params.Samples, params.Epsilon)
			if perr != nil {
				probes = nil
				break
			}
			if probe.Selective() {
				probes = append(probes, probe)
			}
		}
	}

	type delegateAnswer struct {
		reply   wire.RouteReply
		pruned  bool
		failed  bool
		probes  uint64 // root-side probes on the region digest
		sumDown uint64
		sumUp   uint64
		down    uint64
		up      uint64
	}
	answers := make([]delegateAnswer, len(delegates))
	summaryMsg := wire.SummaryMessage()
	var wg sync.WaitGroup
	for i, d := range delegates {
		i, d := i, d
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := &answers[i]
			if len(probes) > 0 {
				reply, err := d.mux.Roundtrip(ctx, summaryMsg)
				if err == nil {
					a.sumDown = uint64(summaryMsg.EncodedSize())
					a.sumUp = uint64(reply.EncodedSize())
					if _, sum, derr := wire.DecodeSummaryReply(reply); derr == nil {
						admit := false
						for _, p := range probes {
							a.probes++
							if sum.Admits(p) {
								admit = true
								break
							}
						}
						a.pruned = !admit
					}
					// A digest that failed to decode leaves the region
					// visited: corruption must never prune.
				}
			}
			if a.pruned {
				return
			}
			reply, err := d.mux.Roundtrip(ctx, routeMsg)
			if err != nil {
				a.failed = true
				return
			}
			a.down = uint64(routeMsg.EncodedSize())
			a.up = uint64(reply.EncodedSize())
			rr, derr := wire.DecodeRouteReply(reply)
			if derr != nil {
				a.failed = true
				return
			}
			a.reply = rr
		}()
	}
	wg.Wait()
	if ctxErr := ctx.Err(); ctxErr != nil {
		return 0, fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
	}

	// All-pruned fallback, mirroring planRoute: if the plan would skip every
	// delegate, visit them all instead. (Pruning is provably exact, but the
	// fallback keeps every tier's worst case identical to full fan-out.)
	allPruned := true
	for i := range answers {
		if !answers[i].pruned {
			allPruned = false
			break
		}
	}
	if allPruned {
		for i, d := range delegates {
			i, d := i, d
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := &answers[i]
				a.pruned = false
				reply, err := d.mux.Roundtrip(ctx, routeMsg)
				if err != nil {
					a.failed = true
					return
				}
				a.down = uint64(routeMsg.EncodedSize())
				a.up = uint64(reply.EncodedSize())
				rr, derr := wire.DecodeRouteReply(reply)
				if derr != nil {
					a.failed = true
					return
				}
				a.reply = rr
			}()
		}
		wg.Wait()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return 0, fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
		}
	}

	// Merge serially: the aggregator is not concurrency-safe, and ordering
	// does not matter (both merge modes are commutative).
	for i, d := range delegates {
		a := &answers[i]
		out.Cost.SubtreeProbes += a.probes
		out.Cost.SummaryBytesDown += a.sumDown
		out.Cost.SummaryBytesUp += a.sumUp
		if a.sumUp > 0 {
			out.Cost.SummaryRefreshes++
		}
		if a.pruned {
			out.Cost.StationsPruned++
			continue
		}
		if a.failed {
			failedStations[d.id] = true
			continue
		}
		out.Cost.BytesDown += a.down
		out.Cost.MessagesDown++
		out.Cost.BytesUp += a.up
		out.Cost.MessagesUp++
		out.Cost.SubtreeProbes += a.reply.Probes
		out.Cost.StationsPruned += int(a.reply.Pruned)
		out.Cost.StationsFailed += int(a.reply.Failed)
		if int(a.reply.Hops) > maxHops {
			maxHops = int(a.reply.Hops)
		}
		for _, r := range a.reply.Results {
			out.Cost.ReportsReceived++
			agg.Merge(core.QueryID(r.Query), core.Result{
				Person:      core.PersonID(r.Person),
				Numerator:   r.Numerator,
				Denominator: r.Denominator,
				Stations:    int(r.Stations),
			})
		}
	}
	return maxHops, nil
}

// runWBFRound executes one round across the epoch's stations: it encodes the
// round's combined filter, sends it to every station in one KindBatchQuery
// frame each, and feeds every report into the shared aggregation. Stations
// that fail are recorded in failedStations — never fatal. An epoch with no
// stations (every member is a route delegate) builds and bills nothing.
func (c *Cluster) runWBFRound(ctx context.Context, ep *epoch, cfg searchConfig, batch []core.Query, agg *core.Aggregator, out *Outcome, reportBytes, filterBytes *uint64, failedStations map[uint32]bool) error {
	if len(ep.ids) == 0 {
		return nil
	}
	params, err := c.resolveParams(cfg, batch)
	if err != nil {
		return err
	}
	enc, err := core.NewEncoder(params, c.length)
	if err != nil {
		return err
	}
	ids := make([]core.QueryID, 0, len(batch))
	for _, q := range batch {
		if err := enc.AddQuery(q); err != nil {
			return err
		}
		ids = append(ids, q.ID)
	}
	combined := enc.Filter()
	batchMsg, err := wire.EncodeBatchQuery(wire.BatchQuery{Queries: ids, Filter: combined})
	if err != nil {
		return err
	}
	*filterBytes += combined.SizeBytes()

	failed, err := c.fanOut(ctx, ep, batchMsg, &out.Cost, func(reply wire.Message) error {
		*reportBytes += uint64(reply.EncodedSize())
		br, err := wire.DecodeBatchReply(reply)
		if err != nil {
			return err
		}
		if int(br.Queries) != len(batch) {
			return fmt.Errorf("cluster: station %d answered %d queries, round has %d", br.Station, br.Queries, len(batch))
		}
		for _, rep := range br.Reports {
			out.Cost.ReportsReceived++
			if err := agg.AddFrom(combined.Weights(), rep); err != nil {
				return err
			}
		}
		return nil
	})
	for _, i := range failed {
		failedStations[ep.ids[i]] = true
	}
	if err != nil {
		return err
	}
	out.Cost.Batches++
	return nil
}

// verifyWBF runs the verification phase: fetch every ranked candidate's
// local patterns, materialize their globals and drop candidates that fail
// the exact Eq. 2 check against their query.
func (c *Cluster) verifyWBF(ctx context.Context, ep *epoch, cfg searchConfig, queries []core.Query, out *Outcome) error {
	candidates := make(map[core.PersonID]bool)
	for _, results := range out.PerQuery {
		for _, r := range results {
			candidates[r.Person] = true
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	fetch := wire.Fetch{Persons: make([]core.PersonID, 0, len(candidates))}
	for p := range candidates {
		fetch.Persons = append(fetch.Persons, p)
	}

	globals := make(map[core.PersonID]pattern.Pattern, len(candidates))
	replicated := c.replicatedPred()
	var fetchedBytes uint64
	failed, err := c.fanOut(ctx, ep, wire.EncodeFetch(fetch), &out.Cost, func(reply wire.Message) error {
		data, err := wire.DecodeNaiveData(reply)
		if err != nil {
			return err
		}
		fetchedBytes += uint64(reply.EncodedSize())
		for i, p := range data.Persons {
			g := globals[p]
			if g == nil {
				g = make(pattern.Pattern, c.length)
				globals[p] = g
			} else if replicated != nil && replicated(p) {
				// Replicas of a placed pattern are identical; the first
				// fetched copy is the person's whole global.
				continue
			}
			for j, v := range data.Locals[i] {
				if j < len(g) {
					g[j] += v
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(failed) > out.Cost.StationsFailed {
		out.Cost.StationsFailed = len(failed)
	}
	out.Cost.CenterStorageBytes += fetchedBytes

	eps := cfg.params.Epsilon
	for _, q := range queries {
		qGlobal, err := q.Global()
		if err != nil {
			return err
		}
		results := out.PerQuery[q.ID]
		kept := results[:0]
		for _, r := range results {
			if pattern.Similar(qGlobal, globals[r.Person], eps) {
				kept = append(kept, r)
			}
		}
		out.PerQuery[q.ID] = kept
	}
	return nil
}

// rankWBF finalizes one query's WBF candidates. With MinScore unset the
// paper's strict Algorithm 3 applies (delete weight sums above 1, rank
// descending). With MinScore set, ε-induced attribution error is tolerated
// symmetrically: candidates scoring within [MinScore, 2-MinScore] are kept
// and ranked by closeness to the perfect partition score of 1 — a complete
// match sums to exactly 1, a same-category match with jitter lands just
// beside it, and a cross-category accident overshoots far past the band.
func rankWBF(cfg searchConfig, agg *core.Aggregator, q core.QueryID) []core.Result {
	if cfg.minScore <= 0 {
		return agg.TopK(q, cfg.topK)
	}
	lo, hi := cfg.minScore, 2-cfg.minScore
	results := agg.Results(q)
	kept := results[:0]
	for _, r := range results {
		if s := r.Score(); s >= lo && s <= hi {
			kept = append(kept, r)
		}
	}
	results = kept
	dist := func(r core.Result) float64 {
		d := 1 - r.Score()
		if d < 0 {
			d = -d
		}
		return d
	}
	sort.Slice(results, func(i, j int) bool {
		di, dj := dist(results[i]), dist(results[j])
		if di != dj {
			return di < dj
		}
		return results[i].Person < results[j].Person
	})
	if cfg.topK > 0 && len(results) > cfg.topK {
		results = results[:cfg.topK]
	}
	return results
}

// searchBF is the Bloom-filter baseline: same pipeline, no weights, so the
// center can only count how many stations reported each person.
func (c *Cluster) searchBF(ctx context.Context, ep *epoch, cfg searchConfig, queries []core.Query) (*Outcome, error) {
	params, err := c.resolveParams(cfg, queries)
	if err != nil {
		return nil, err
	}
	enc, err := core.NewBFEncoder(params, c.length)
	if err != nil {
		return nil, err
	}
	for _, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			return nil, err
		}
	}
	filter := enc.Filter()

	counts := make(map[core.PersonID]int)
	replicated := c.replicatedPred()
	out := &Outcome{PerQuery: make(map[core.QueryID][]core.Result, len(queries))}
	msg := wire.EncodeBFQuery(wire.BFQuery{Filter: filter, Params: params, Length: c.length})
	var reportBytes uint64
	failed, err := c.fanOut(ctx, ep, msg, &out.Cost, func(reply wire.Message) error {
		batch, err := wire.DecodeBFMatches(reply)
		if err != nil {
			return err
		}
		reportBytes += uint64(reply.EncodedSize())
		for _, p := range batch.Persons {
			out.Cost.ReportsReceived++
			// A placed person's stations are replicas of one pattern, not
			// independent sightings: they count as a single report so the
			// station-count ranking is not inflated by the replication
			// factor.
			if replicated != nil && replicated(p) {
				if counts[p] == 0 {
					counts[p] = 1
				}
				continue
			}
			counts[p]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ranked := make([]core.Result, 0, len(counts))
	stations := int64(len(ep.ids))
	for p, n := range counts {
		ranked = append(ranked, core.Result{
			Person:      p,
			Numerator:   int64(n),
			Denominator: stations,
			Stations:    n,
		})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Numerator != ranked[j].Numerator {
			return ranked[i].Numerator > ranked[j].Numerator
		}
		return ranked[i].Person < ranked[j].Person
	})
	if cfg.topK > 0 && len(ranked) > cfg.topK {
		ranked = ranked[:cfg.topK]
	}
	for _, q := range queries {
		out.PerQuery[q.ID] = ranked
	}
	out.Cost.StationsFailed = len(failed)
	out.Cost.FilterBytes = filter.SizeBytes()
	out.Cost.CenterStorageBytes = filter.SizeBytes() + reportBytes
	return out, nil
}

// searchNaive ships everything and matches centrally with the exact Eq. 2
// predicate. Precision is 1 by construction; the cost is the point.
func (c *Cluster) searchNaive(ctx context.Context, ep *epoch, cfg searchConfig, queries []core.Query) (*Outcome, error) {
	globals := make(map[core.PersonID]pattern.Pattern)
	replicated := c.replicatedPred()
	var shippedBytes uint64
	out := &Outcome{PerQuery: make(map[core.QueryID][]core.Result, len(queries))}
	failed, err := c.fanOut(ctx, ep, wire.ShipAllMessage(), &out.Cost, func(reply wire.Message) error {
		data, err := wire.DecodeNaiveData(reply)
		if err != nil {
			return err
		}
		shippedBytes += uint64(reply.EncodedSize())
		for i, p := range data.Persons {
			g := globals[p]
			if g == nil {
				g = make(pattern.Pattern, c.length)
				globals[p] = g
			} else if replicated != nil && replicated(p) {
				// A placed person's stations ship identical replicas of one
				// pattern: summing them would double the global, so the
				// first copy stands for all of them.
				continue
			}
			for j, v := range data.Locals[i] {
				g[j] += v
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	eps := cfg.params.Epsilon
	for _, q := range queries {
		qGlobal, err := q.Global()
		if err != nil {
			return nil, err
		}
		type cand struct {
			person core.PersonID
			dist   int64
		}
		var cands []cand
		for p, g := range globals {
			d, err := pattern.MaxAbsDiff(qGlobal, g)
			if err != nil {
				continue // length mismatch: cannot match
			}
			if d > eps {
				continue
			}
			if cfg.minScore > 0 {
				if score := float64(eps-d+1) / float64(eps+1); score < cfg.minScore {
					continue
				}
			}
			cands = append(cands, cand{person: p, dist: d})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].person < cands[j].person
		})
		if cfg.topK > 0 && len(cands) > cfg.topK {
			cands = cands[:cfg.topK]
		}
		rs := make([]core.Result, len(cands))
		for i, cd := range cands {
			rs[i] = core.Result{
				Person:      cd.person,
				Numerator:   eps - cd.dist + 1,
				Denominator: eps + 1,
				Stations:    len(ep.ids),
			}
		}
		out.PerQuery[q.ID] = rs
	}
	out.Cost.StationsFailed = len(failed)
	out.Cost.ReportsReceived = len(globals)
	out.Cost.CenterStorageBytes = shippedBytes
	return out, nil
}
