package dimatch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"dimatch/internal/placement"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// Options configures a cluster's search knobs: the pipeline parameters,
// top-K, score threshold and filter sizing. Strategy, verification and
// routing are chosen per call with a SearchOption.
type Options struct {
	// Params carries the pipeline knobs (samples b, hashes k, ε, seed...).
	// If Params.Bits is zero the filter is auto-sized per search to TargetFP
	// over the estimated insertions: the WBF for transmission (one hash,
	// m = n/TargetFP, core.SizedParams), the BF baseline for memory
	// (bloom.OptimalParams), as the paper prices it.
	Params Params
	// TopK limits each query's answer; <= 0 returns all qualified persons.
	// With TopK > 0 and no MinScore a WBF search asks its stations first
	// only for persons below a bound the cluster learns from earlier
	// searches, and runs one tail round over the rest only when that prefix
	// cannot fill every query's k at the top score. Its answer equals the
	// uncapped answer's first k either way (CostReport.TailRounds counts the
	// tail rounds; docs/OPERATIONS.md, "Capped searches").
	TopK int
	// MinScore drops WBF and naive results scoring below the threshold
	// (0 keeps everything). A person whose local matches partition the
	// query's locals scores exactly 1, so thresholds near 1 select complete
	// matches. The BF baseline has no weights and cannot honor MinScore —
	// one of its fundamental weaknesses.
	MinScore float64
	// TargetFP is the value-level false-positive rate filters are sized for
	// when Params.Bits == 0; outside (0, 1) → 0.01, the default.
	TargetFP float64
}

// epoch is one immutable snapshot of cluster membership. Every search pins
// the epoch current at its start and fans out over exactly that station
// set, so membership mutations can swap in the next epoch while searches
// are in flight without racing them. ids ascend; muxes is parallel.
type epoch struct {
	version uint64
	ids     []uint32
	muxes   []*transport.Mux
}

// up reports whether member i's link is up: its mux has not failed.
func (ep *epoch) up(i int) bool { return ep.muxes[i].Err() == nil }

// find returns the index of id in the epoch's membership, or -1.
func (ep *epoch) find(id uint32) int {
	i := sort.Search(len(ep.ids), func(i int) bool { return ep.ids[i] >= id })
	if i < len(ep.ids) && ep.ids[i] == id {
		return i
	}
	return -1
}

// Cluster is a running DI-matching deployment: one data center over its
// member base stations, wired over metered, request-multiplexed links, each
// in-process station served by its own goroutine. Any number of Search
// calls may run concurrently: each link's mux serializes outgoing frames and
// routes replies back to the owning search by wire request ID.
//
// The cluster is live: Ingest and Evict mutate a station's resident
// patterns, AddStation and RemoveStation grow and shrink the membership,
// all while searches are in flight. Membership lives in an epoch-versioned
// snapshot: an in-flight search works over the epoch it started with, a
// membership change installs the next one.
type Cluster struct {
	opts   Options
	length int

	mu     sync.Mutex
	ep     *epoch // dimatch:guardedby mu — searches pin a snapshot via pinEpoch, never read this live
	epochs uint64 // dimatch:guardedby mu — version counter feeding ep.version
	closed bool   // dimatch:guardedby mu

	// placeTab tracks persons under automatic placement (see Place); nil
	// until the first Place call, so station-addressed clusters pay nothing.
	// healMu orders Place, Unplace and reconciliation passes: every heal
	// runs after any placement already in flight.
	placeTab *placement.Table
	healMu   sync.Mutex

	// layout is what group routing (route.go) trusts: the sorted alive set
	// of the last placement that completed, under which every placed person
	// holds current copies exactly on its Pick set, while every station it
	// names is up (layoutHeldLocked). Joins, removals and failed placement
	// exchanges invalidate it; gen counts invalidations, so a placement
	// that started before one cannot record over it.
	layout placeLayout // dimatch:guardedby mu
	// addressed marks the members that may hold residents of their own, so
	// group routing never skips one that admits (route.go). A member is
	// addressed when its join handshake reports residents or it receives a
	// public Ingest; every other member holds placed copies only.
	addressed map[uint32]bool // dimatch:guardedby mu
	// figures holds each member's last stats reply: its handshake's, then
	// replaced by the reply to every mutation sent to it (mutate). Stats and
	// each search's StationRawBytes read it; no stats exchange follows the
	// join.
	figures map[uint32]wire.StatsReply // dimatch:guardedby mu

	// summaries is the routing-summary cache: one probeable digest per
	// station, filled lazily by routed searches and kept honest by the
	// mutation hooks (ingest delta-updates, evict and membership changes
	// invalidate). See route.go.
	summaries summaryCache

	// prefix is the learned person-ID bound of capped searches' prefix
	// rounds (wbf.go). Internally synchronized — searches share it.
	prefix prefixBound

	moves moveFence // dimatch:guardedby mu

	wg       sync.WaitGroup
	serveMu  sync.Mutex
	serveErr []error // dimatch:guardedby serveMu
}

// Member specifies one station of a cluster, for NewCluster and AddStation.
// With Link nil the member is an in-process station: seeded with Patterns
// (copied in; all-zero patterns are dropped) and, when Store is set, made
// durable through it — it recovers the store's residents before joining and
// owns the store from then on. With Link set the member is a remote station
// already serving on the other end; Patterns and Store must then be nil.
// Either way the member joins through the stats handshake, which learns
// whether it holds residents and refuses patterns of a foreign length.
// The cluster takes ownership of Link and Store: a refused member has both
// closed.
type Member struct {
	ID       uint32
	Patterns map[PersonID]Pattern
	Store    Store
	Link     Link
}

// Members turns station-major data (as StationData returns) into one
// in-process member per station.
func Members(stationData map[uint32]map[PersonID]Pattern) []Member {
	ms := make([]Member, 0, len(stationData))
	for id, locals := range stationData {
		ms = append(ms, Member{ID: id, Patterns: locals})
	}
	return ms
}

// check refuses a member spec before anything is recovered or wired: a link
// member carrying seed patterns or a store, or seed patterns of a foreign
// length or holding a value out of range.
func (m Member) check(length int) error {
	if m.Link != nil && (m.Patterns != nil || m.Store != nil) {
		return fmt.Errorf("cluster: station %d: a link member takes no patterns or store", m.ID)
	}
	return checkPatterns(length, fmt.Sprintf("station %d", m.ID), m.Patterns)
}

// wire builds the center-side mux of a checked member: over its link, or
// over a pipe to an in-process station that recovers here, takes m.Store and
// serves at once under c.wg, closing the store and then done when it exits
// (done is nil for a link member). A closed cluster starts no station, so
// none outlives Shutdown's wait.
func (c *Cluster) wire(m *Member) (mux *transport.Mux, done <-chan struct{}, err error) {
	if m.Link != nil {
		return transport.NewMux(m.Link), nil, nil
	}
	center, stationEnd := transport.Pipe(nil, nil)
	st, err := newStation(m.ID, m.Patterns, stationEnd, m.Store)
	if err != nil {
		_ = center.Close()
		return nil, nil, err
	}
	m.Store = nil
	c.mu.Lock()
	closed := c.closed
	if !closed {
		c.wg.Add(1)
	}
	c.mu.Unlock()
	if closed {
		_ = center.Close()
		_ = st.Serve() // returns at once over the closed pipe, closing the store
		return nil, nil, ErrClusterClosed
	}
	exited := make(chan struct{})
	go func() {
		defer c.wg.Done()
		err := st.Serve()
		// Close the station's end on every way out: a station that stopped
		// on an error then fails the center's pending round trips instead of
		// leaving them waiting for replies.
		_ = stationEnd.Close()
		if err != nil {
			c.serveMu.Lock()
			c.serveErr = append(c.serveErr, err)
			c.serveMu.Unlock()
		}
		close(exited)
	}()
	return transport.NewMux(center), exited, nil
}

// release closes what a refused member handed the cluster and no station
// took: its link, and its store unless wire gave it to a station.
func (m Member) release() {
	if m.Link != nil {
		_ = m.Link.Close()
	}
	if m.Store != nil {
		_ = m.Store.Close()
	}
}

// handshakeTimeout bounds NewCluster's join handshakes: NewCluster takes no
// context, so a member that has not answered by then is refused.
const handshakeTimeout = 10 * time.Second

// NewCluster builds and starts a cluster of patternLength-long patterns over
// the given members: in-process stations (seeded, or empty for a
// placement-first deployment where every pattern arrives through Place or
// Ingest; durable when a Store is set, recovering its residents first) and
// remote ones over established links, in any mix. Every member is checked —
// ids distinct (ErrStationExists), specs consistent, seed lengths matching
// (ErrLengthMismatch) — before any store is recovered. Every member is then
// wired, in-process stations serving at once, and all pass AddStation's
// handshake together, within ten seconds: a member that does not answer,
// holds patterns of another length or speaks another wire version is
// refused. A failed call closes every link and store it was handed. Callers
// own Shutdown.
func NewCluster(opts Options, patternLength int, members ...Member) (*Cluster, error) {
	members = append([]Member(nil), members...)
	c, err := assemble(opts, patternLength, members)
	if err != nil {
		for _, m := range members {
			m.release()
		}
	}
	return c, err
}

// assemble is NewCluster over its own copy of the members, which it sorts
// by id.
func assemble(opts Options, length int, members []Member) (*Cluster, error) {
	if len(members) == 0 {
		return nil, errors.New("cluster: no stations")
	}
	if length <= 0 {
		return nil, fmt.Errorf("cluster: pattern length %d, want > 0", length)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	ids := make([]uint32, len(members))
	for i, m := range members {
		if i > 0 && m.ID == members[i-1].ID {
			return nil, fmt.Errorf("%w: station %d", ErrStationExists, m.ID)
		}
		if err := m.check(length); err != nil {
			return nil, err
		}
		ids[i] = m.ID
	}
	c := &Cluster{
		opts:      opts,
		length:    length,
		addressed: make(map[uint32]bool),
		figures:   make(map[uint32]wire.StatsReply),
	}
	muxes := make([]*transport.Mux, 0, len(members))
	for i := range members {
		mux, _, err := c.wire(&members[i])
		if err != nil {
			c.closeMuxes(muxes)
			return nil, err
		}
		muxes = append(muxes, mux)
	}
	ctx, cancel := context.WithTimeout(context.Background(), handshakeTimeout) //dimatch:allow ctxflow — NewCluster takes no context; handshakeTimeout bounds its joins instead
	defer cancel()
	replies, err := c.handshake(ctx, ids, muxes)
	if err != nil {
		c.closeMuxes(muxes)
		return nil, err
	}
	for i, id := range ids {
		c.figures[id] = replies[i]
		c.addressed[id] = replies[i].Residents > 0
	}
	c.installEpochLocked(ids, muxes)
	return c, nil
}

// checkPatterns reports the first pattern whose length differs from the
// cluster's, as an ErrLengthMismatch, or else the first holding a value out
// of range (checkRange), naming what was being done.
func checkPatterns(length int, what string, patterns map[PersonID]Pattern) error {
	for p, l := range patterns {
		if len(l) != length {
			return lengthMismatch(what, p, len(l), length)
		}
	}
	return checkRange(what, patterns)
}

// checkRange reports the first pattern holding a value an int32 cannot
// hold as an ErrValueRange naming what was being done.
func checkRange(what string, patterns map[PersonID]Pattern) error {
	for p, l := range patterns {
		if !l.InRange() {
			return valueRange(what, p)
		}
	}
	return nil
}

// sortedPersons returns the persons of patterns ascending, or the first
// pattern whose length differs from the cluster's as an ErrLengthMismatch
// naming what was being done. It reads each pattern's length, not its cells:
// Place and Ingest then read every pattern once, in person order.
func sortedPersons(what string, length int, patterns map[PersonID]Pattern) ([]PersonID, error) {
	persons := make([]PersonID, 0, len(patterns))
	for p, l := range patterns {
		if len(l) != length {
			return nil, lengthMismatch(what, p, len(l), length)
		}
		persons = append(persons, p)
	}
	slices.Sort(persons)
	return persons, nil
}

// allPersons returns the persons of patterns ascending: what a Place that
// failed before any exchange leaves unplaced.
func allPersons(patterns map[PersonID]Pattern) []PersonID {
	persons := make([]PersonID, 0, len(patterns))
	for p := range patterns {
		persons = append(persons, p)
	}
	slices.Sort(persons)
	return persons
}

// lengthMismatch is checkPatterns's error for one person's pattern.
func lengthMismatch(what string, p PersonID, got, length int) error {
	return fmt.Errorf("%w: %s person %d pattern length %d, cluster is %d", ErrLengthMismatch, what, p, got, length)
}

// valueRange is checkRange's error for one person's pattern.
func valueRange(what string, p PersonID) error {
	return fmt.Errorf("%w: %s person %d", ErrValueRange, what, p)
}

// closeMuxes closes what a failed NewCluster built and waits for the
// stations it started, which close their stores on the way out; release then
// closes the links again, harmlessly, and every store no station took.
func (c *Cluster) closeMuxes(muxes []*transport.Mux) {
	for _, m := range muxes {
		_ = m.Close()
	}
	c.wg.Wait()
}

// installEpochLocked makes (ids, muxes) the live membership snapshot when
// the member set changes. Callers hold c.mu (or own the cluster exclusively
// during construction).
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

// pinEpoch returns the live membership snapshot for a search, registered in
// the move generation (moveFence) until leaveSearch, or ErrClusterClosed.
func (c *Cluster) pinEpoch() (*epoch, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, 0, ErrClusterClosed
	}
	c.moves.cur++
	return c.ep, c.moves.gen, nil
}

// leaveSearch ends the registration pinEpoch made in generation gen.
func (c *Cluster) leaveSearch(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen == c.moves.gen {
		c.moves.cur--
	} else if c.moves.old--; c.moves.old == 0 && c.moves.drained != nil {
		close(c.moves.drained)
		c.moves.drained = nil
	}
}

// Stations returns the number of member stations, up or down.
func (c *Cluster) Stations() int { return len(c.currentEpoch().ids) }

// PatternLength returns the cluster's time-series length.
func (c *Cluster) PatternLength() int { return c.length }
