package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dimatch/internal/adapt"
	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/metrics"
	"dimatch/internal/pattern"
	"dimatch/internal/placement"
	"dimatch/internal/transport"
)

// Options configures a cluster's default search knobs. Every knob can be
// overridden per call with a SearchOption.
type Options struct {
	// Params carries the pipeline knobs (samples b, hashes k, ε, seed...).
	// If Params.Bits is zero the filter is auto-sized per search to TargetFP
	// over the estimated insertions: the WBF for transmission (one hash,
	// m = n/TargetFP, core.SizedParams), the BF baseline for memory
	// (bloom.OptimalParams), as the paper prices it.
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
	// TargetFP is the value-level false-positive rate filters are sized for
	// when Params.Bits == 0; outside (0, 1) → 0.01, the default.
	TargetFP float64
	// AdaptWindow is the traffic profiler's sliding window in observed
	// band probes: once that many accumulate, every counter halves, so the
	// profile tracks the recent mix instead of all history (see
	// internal/adapt and docs/OPERATIONS.md on sizing it). 0 keeps the
	// unbounded all-history profile.
	AdaptWindow int
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
	// healMu orders Place, Unplace and reconciliation passes: every heal
	// runs after any placement already in flight.
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

	// Registered streaming-pipeline health providers (see stream_hooks.go).
	// hookMu is leaf-level — never held while c.mu is taken or a provider
	// runs.
	hookMu      sync.Mutex
	streamStats map[uint64]func() *metrics.StreamStats // dimatch:guardedby hookMu
	hookSeq     uint64                                 // dimatch:guardedby hookMu

	wg       sync.WaitGroup
	serveMu  sync.Mutex
	serveErr []error // dimatch:guardedby serveMu
}

// assemble is the one construction path behind New, NewEmpty, NewStored and
// NewWithLinks: defaults, the shared argument checks, then one member per id
// in ascending order. attach yields a member's center-side mux and, for an
// in-process member, the station Start will serve.
func assemble(opts Options, length int, down, up *transport.Meter, ids []uint32, attach func(c *Cluster, id uint32) (*transport.Mux, *Station, error)) (*Cluster, error) {
	if len(ids) == 0 {
		return nil, errors.New("cluster: no stations")
	}
	if length <= 0 {
		return nil, fmt.Errorf("cluster: pattern length %d, want > 0", length)
	}
	if opts.TargetFP == 0 {
		opts.TargetFP = core.DefaultTargetFP
	}
	if down == nil {
		down = &transport.Meter{}
	}
	if up == nil {
		up = &transport.Meter{}
	}
	ids = append([]uint32(nil), ids...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("%w: station %d", ErrStationExists, ids[i])
		}
	}
	c := &Cluster{
		opts:      opts,
		length:    length,
		dead:      make(map[uint32]bool),
		downMeter: down,
		upMeter:   up,
		profiler:  adapt.NewProfiler(length, opts.AdaptWindow),
	}
	muxes := make([]*transport.Mux, 0, len(ids))
	for _, id := range ids {
		mux, st, err := attach(c, id)
		if err != nil {
			for _, m := range muxes {
				_ = m.Close()
			}
			return nil, err
		}
		muxes = append(muxes, mux)
		if st != nil {
			c.pending = append(c.pending, st)
		}
	}
	// Remote stations run their own Serve loops: a cluster with nothing to
	// launch is live from construction (Start stays an idempotent no-op), and
	// stations added later via AddStation are served immediately.
	c.started = len(c.pending) == 0
	c.installEpochLocked(ids, muxes)
	return c, nil
}

// pipeMember wires one in-process member: a metered pipe whose center end
// becomes the member's mux and whose station end mk builds the station on.
func (c *Cluster) pipeMember(mk func(link transport.Link) (*Station, error)) (*transport.Mux, *Station, error) {
	center, stationEnd := transport.Pipe(c.downMeter, c.upMeter)
	st, err := mk(stationEnd)
	if err != nil {
		return nil, nil, err
	}
	return transport.NewMux(center), st, nil
}

// plainMember wires one in-process member over an in-memory store.
func (c *Cluster) plainMember(id uint32, locals map[core.PersonID]pattern.Pattern) (*transport.Mux, *Station, error) {
	return c.pipeMember(func(link transport.Link) (*Station, error) {
		return NewStation(id, locals, link), nil
	})
}

// checkLengths reports the first pattern whose length differs from the
// cluster's, as an ErrLengthMismatch naming what was being done.
func checkLengths(length int, what string, patterns map[core.PersonID]pattern.Pattern) error {
	for p, l := range patterns {
		if len(l) != length {
			return fmt.Errorf("%w: %s person %d pattern length %d, cluster is %d", ErrLengthMismatch, what, p, len(l), length)
		}
	}
	return nil
}

// New builds a cluster from per-station local data. All patterns must share
// one length. The cluster is inert until Start.
func New(opts Options, stationData map[uint32]map[core.PersonID]pattern.Pattern) (*Cluster, error) {
	ids := make([]uint32, 0, len(stationData))
	length := 0
	for id, locals := range stationData {
		ids = append(ids, id)
		for _, l := range locals {
			if length == 0 {
				length = len(l)
			}
			if len(l) != length {
				return nil, fmt.Errorf("%w: station %d pattern length %d, want %d", ErrLengthMismatch, id, len(l), length)
			}
		}
	}
	if len(ids) > 0 && length == 0 {
		return nil, errors.New("cluster: stations hold no patterns")
	}
	return assemble(opts, length, nil, nil, ids, func(c *Cluster, id uint32) (*transport.Mux, *Station, error) {
		return c.plainMember(id, stationData[id])
	})
}

// NewEmpty builds a cluster of in-process stations that hold no patterns
// yet — the starting point of a placement-first deployment, where every
// pattern arrives through Place (or Ingest) on the running cluster. The
// caller supplies the pattern length New would otherwise derive from the
// seed data. The cluster is inert until Start.
func NewEmpty(opts Options, stationIDs []uint32, patternLength int) (*Cluster, error) {
	return assemble(opts, patternLength, nil, nil, stationIDs, func(c *Cluster, id uint32) (*transport.Mux, *Station, error) {
		return c.plainMember(id, nil)
	})
}

// NewWithLinks builds a data center over externally established links (for
// example TCP connections to remote station processes). The caller supplies
// the shared pattern length and the meters its links record into (either
// may be nil). Start is a no-op — remote stations run their own Serve
// loops — and Shutdown sends each station a shutdown message and closes the
// links. The cluster takes ownership of the links: each is wrapped in a
// request mux, so callers must not Recv on them afterwards.
func NewWithLinks(opts Options, links map[uint32]transport.Link, patternLength int, downMeter, upMeter *transport.Meter) (*Cluster, error) {
	ids := make([]uint32, 0, len(links))
	for id := range links {
		ids = append(ids, id)
	}
	return assemble(opts, patternLength, downMeter, upMeter, ids, func(_ *Cluster, id uint32) (*transport.Mux, *Station, error) {
		return transport.NewMux(links[id]), nil, nil
	})
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

// pinEpoch returns the live membership snapshot for an operation to work
// over, or ErrClusterClosed after Shutdown.
func (c *Cluster) pinEpoch() (*epoch, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClusterClosed
	}
	return c.ep, nil
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
