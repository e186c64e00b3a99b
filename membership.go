package dimatch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"dimatch/internal/index"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// KillStation severs one station's link, simulating a failure, and heals
// around it. The station stays a member, down just as one whose link is
// lost for real: placement and group routing leave it out, Stats counts it
// in StationsFailed, and a search that visits it counts it in
// CostReport.StationsFailed. When patterns are placed (see Place), a
// reconciliation pass runs before KillStation returns: the station's copies
// are re-replicated from their surviving replicas, restoring the requested
// replication factor; a link lost for real gets that pass from the next
// Rebalance or membership change, or from KillStation, which on a link
// already down only heals. Use RemoveStation for a deliberate departure.
func (c *Cluster) KillStation(id uint32) error {
	c.mu.Lock()
	i := c.ep.find(id)
	if i < 0 {
		c.mu.Unlock()
		return fmt.Errorf("%w: station %d", ErrUnknownStation, id)
	}
	err := c.ep.muxes[i].Close()
	c.mu.Unlock()
	c.summaries.invalidate(id)
	c.heal(context.Background()) //dimatch:allow ctxflow — KillStation is a ctx-less fault-injection API; healing must outlive the injected fault
	return err
}

// shutdownGrace bounds how long a shutdown frame may take to be accepted
// before the link is closed out from under the station. A stalled link
// (dead TCP peer, abandoned send holding the mux's send slot) would
// otherwise block Shutdown or RemoveStation forever.
const shutdownGrace = 100 * time.Millisecond

// stopMux sends a member whose link is up a best-effort shutdown frame —
// bounded by shutdownGrace and ctx — then closes the mux, which also
// unblocks any send stalled on it and releases a link lost for real.
func stopMux(ctx context.Context, m *transport.Mux) {
	if m.Err() == nil {
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
	}
	_ = m.Close()
}

// Shutdown stops all stations and waits for their goroutines to exit.
// Subsequent Search calls return ErrClusterClosed. The cluster lock is not
// held while frames are sent, so concurrent Search and KillStation calls
// cannot deadlock against a stalled station; each member whose link is up
// gets a bounded grace to accept the shutdown frame, after which every link
// is closed (which also unblocks any send stalled on it).
func (c *Cluster) Shutdown() error {
	c.mu.Lock()
	c.closed = true
	toStop := c.ep.muxes
	c.mu.Unlock()

	var stopWg sync.WaitGroup
	for _, m := range toStop {
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
// Pattern lengths must match the cluster's (ErrLengthMismatch) and values
// fit an int32 (ErrValueRange); otherwise nothing is sent. All-zero
// patterns are dropped before sending (no measurable activity means no
// local pattern, the stations' own ingest rule), so a batch of only those
// sends nothing. The station is addressed from then on: routing never
// skips it as a redundant replica (planRoute).
func (c *Cluster) Ingest(ctx context.Context, stationID uint32, patterns map[PersonID]Pattern) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Every length is checked before any cell is read, so a batch with both
	// faults fails ErrLengthMismatch. Then each pattern is read once, in
	// person order, for its range, whether it is all zero and its encoded
	// size; the kept rows are compacted in place, as Place's pass does.
	persons, err := sortedPersons("ingest", c.length, patterns)
	if err != nil {
		return err
	}
	in := rowSet{persons: persons[:0], locals: make([]Pattern, 0, len(persons))}
	var share rowShare
	for _, p := range persons {
		pat := patterns[p]
		if !pat.InRange() {
			return valueRange("ingest", p)
		}
		if pattern.AllZero(pat) {
			continue
		}
		in.persons = append(in.persons, p)
		in.locals = append(in.locals, pat)
		share.bytes += wire.RowSize(p, pat)
	}
	if len(in.persons) == 0 {
		return nil
	}
	if err := c.knownStation("ingest", stationID); err != nil {
		return err
	}
	placed := c.touchesPlaced(in.persons)
	c.mu.Lock()
	if c.ep.find(stationID) >= 0 {
		c.addressed[stationID] = true
	}
	if placed {
		c.invalidateLayoutLocked()
	}
	c.mu.Unlock()
	_, err = c.ingest(ctx, "ingest", in, map[uint32]rowShare{stationID: share})
	return err
}

// ingest is the one ingest path, Ingest's and the grouped copies of Place
// and reconciliation (which leave the stations unaddressed), over mutate:
// each station of perStation gets the rows of in (person-ascending, of the
// cluster's length) that its share lists, every row for a nil index, in a
// frame sized from the share's bytes.
//
// A station the coordinator knows is empty (its figures count no resident)
// has its routing digest built here, on its exchange goroutine, each row
// added as it is encoded: sized and seeded as index.Build sizes the
// station's own, so once the ack counts exactly the rows sent (no caller
// sends an all-zero row, so the station keeps every one), the two are
// byte-equal, and the next routed search pulls nothing
// (summaryCache.handOver).
func (c *Cluster) ingest(ctx context.Context, what string, in rowSet, perStation map[uint32]rowShare) (map[uint32]bool, error) {
	ids := stationsOf(perStation)
	// Each generation is read before the figures: an ingest whose ack
	// lands after the emptiness read below has bumped it by the time this
	// one's digest could be installed (see put).
	gens := make([]uint64, len(ids))
	for i, id := range ids {
		_, gens[i] = c.summaries.get(id)
	}
	empty := make([]bool, len(ids))
	c.mu.Lock()
	for i, id := range ids {
		empty[i] = c.figures[id].Residents == 0
	}
	c.mu.Unlock()
	digests := make([]*index.Summary, len(ids))
	return c.mutate(ctx, ids, what, func(i int) (wire.Message, error) {
		share := perStation[ids[i]]
		var each func(int)
		if empty[i] {
			if sum, err := index.New(c.length, share.rows(len(in.persons)), index.DefaultFPTarget, index.DefaultSeed); err == nil {
				digests[i] = sum
				each = func(k int) {
					_ = sum.Add(in.locals[k]) // every row is of the cluster's length
				}
			}
		}
		payload, err := wire.EncodeRows(nil, in.persons, in.locals, share.index, share.bytes, each)
		return wire.Message{Kind: wire.KindIngest, Payload: payload}, err
	}, func(i int, sr wire.StatsReply, err error) {
		if err != nil {
			// The exchange failed, but the frame may still have been
			// delivered and applied (a lost reply, a deadline while awaiting
			// it). A cached digest missing an applied ingest would prune the
			// station away from its new residents — the one staleness
			// direction that loses recall — so the slot is invalidated on the
			// error path too.
			c.summaries.invalidate(ids[i])
			return
		}
		// The station's routing summary grew. A digest built here stands
		// for the station's store only if the station holds exactly the
		// rows it added, and was sized for them: residents beyond them
		// (another ingest's, or ones the figures did not count yet) leave it
		// to the delta update (handOver: Bloom inserts are monotone), so
		// routed searches keep pruning without a refresh round trip.
		share := perStation[ids[i]]
		sum := digests[i]
		if sr.Residents != uint64(share.rows(len(in.persons))) {
			sum = nil
		}
		c.summaries.handOver(ids[i], gens[i], sum, in.locals, share.index)
	})
}

// Evict removes residents from one station — expired retention windows,
// opted-out subscribers, or data handed off elsewhere. Unknown persons are
// ignored. Like Ingest, the mutation serializes through the station's
// request/reply loop. Evict does not release a placed person from
// management — reconciliation will restore their evicted copy; use Unplace
// for that.
func (c *Cluster) Evict(ctx context.Context, stationID uint32, persons []PersonID) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(persons) == 0 {
		return nil
	}
	if err := c.knownStation("evict", stationID); err != nil {
		return err
	}
	if c.touchesPlaced(persons) {
		c.invalidateLayout()
	}
	_, err := c.evict(ctx, "evict", map[uint32][]PersonID{stationID: persons})
	return err
}

// evict is the one evict path, Evict's and the grouped evicts of Unplace
// and reconciliation (which keep the layout themselves), over mutate.
func (c *Cluster) evict(ctx context.Context, what string, perStation map[uint32][]PersonID) (map[uint32]bool, error) {
	ids := stationsOf(perStation)
	return c.mutate(ctx, ids, what, func(i int) (wire.Message, error) {
		return wire.Message{Kind: wire.KindEvict, Payload: wire.EncodePersons(perStation[ids[i]])}, nil
	}, func(i int, _ wire.StatsReply, err error) {
		if err == nil {
			// Bloom digests cannot delete: drop the cached summary and let
			// the next routed search refetch. Keeping the stale digest would
			// only waste probes, but it would also never shrink.
			c.summaries.invalidate(ids[i])
		}
	})
}

// knownStation refuses a public Ingest or Evict naming a station that is
// not a member of the open cluster, with mutate's "what station N: …"
// error, before the call touches the placement layout. A closed cluster is
// left to mutate, which refuses it with ErrClusterClosed.
func (c *Cluster) knownStation(what string, id uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed && c.ep.find(id) < 0 {
		return fmt.Errorf("%s station %d: %w", what, id, ErrUnknownStation)
	}
	return nil
}

// stationsOf returns the stations of perStation ascending.
func stationsOf[T any](perStation map[uint32]T) []uint32 {
	ids := make([]uint32, 0, len(perStation))
	for id := range perStation {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// mutate is the one mutation exchange: each station ids[i] (ascending) of
// the current epoch gets frame(i), and landed hears its outcome as it
// lands: the station's figures, or the error. The figures replace the
// station's c.figures entry while the same link serves the id, unless
// older (by Seq) than the recorded reply. It returns the failed stations, and ErrClusterClosed or
// each failure as "what station N: …" in station order, wrapping
// ErrUnknownStation or, once ctx has ended, ErrCancelled.
func (c *Cluster) mutate(ctx context.Context, ids []uint32, what string, frame func(i int) (wire.Message, error), landed func(i int, sr wire.StatsReply, err error)) (failed map[uint32]bool, err error) {
	c.mu.Lock()
	closed, ep := c.closed, c.ep
	c.mu.Unlock()
	muxes := make([]*transport.Mux, len(ids))
	for i, id := range ids {
		if j := ep.find(id); j >= 0 {
			muxes[i] = ep.muxes[j]
		}
	}
	failed = make(map[uint32]bool)
	errs := make([]error, len(ids))
	exchange(ctx, muxes, func(i int) (wire.Message, error) {
		switch {
		case closed:
			return wire.Message{}, ErrClusterClosed
		case muxes[i] == nil:
			return wire.Message{}, ErrUnknownStation
		}
		return frame(i)
	}, func(i int, reply wire.Message, err error) {
		var sr wire.StatsReply
		if err == nil {
			sr, err = wire.DecodeStatsReply(reply)
		} else if ctxErr := ctx.Err(); ctxErr != nil {
			err = fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
		}
		if err != nil {
			failed[ids[i]] = true
			errs[i] = fmt.Errorf("%s station %d: %w", what, ids[i], err)
		} else {
			c.mu.Lock()
			if j := c.ep.find(ids[i]); j >= 0 && c.ep.muxes[j] == muxes[i] && sr.Seq >= c.figures[ids[i]].Seq {
				c.figures[ids[i]] = sr
			}
			c.mu.Unlock()
		}
		landed(i, sr, errs[i])
	})
	if closed && len(ids) > 0 {
		return failed, ErrClusterClosed
	}
	return failed, errors.Join(errs...)
}

// refusalLocked reports why id cannot join right now — a closed cluster or a
// taken id — or nil. Callers hold c.mu.
func (c *Cluster) refusalLocked(id uint32) error {
	if c.closed {
		return ErrClusterClosed
	}
	if c.ep.find(id) >= 0 {
		return fmt.Errorf("%w: station %d", ErrStationExists, id)
	}
	return nil
}

// AddStation grows the membership of a running cluster with one member —
// an in-process station (seeded, durable when m.Store is set: the rejoin
// path of a restarted station) or a remote one over m.Link. Searches already
// in flight complete against their own epoch; searches started after the
// call fan out to the new station too.
//
// A refused join — a closed cluster, a taken id (ErrStationExists), a bad
// spec, seed patterns of a foreign length (ErrLengthMismatch) — is refused
// before the store is recovered, and closes the member's link and store.
// Every member must then pass the stats handshake NewCluster also runs: it must
// answer, and the patterns it holds, seeded, recovered or remote, must
// match the cluster's length (ErrLengthMismatch). A refused member has its
// link and store closed before the call returns. A durable member recovers
// before the cluster lock is taken, so replaying a large WAL never stalls
// concurrent searches.
//
// The join installs the next epoch and runs the hooks every join owes: a
// departed member may have left a digest under the same id, so the summary
// slot starts cold; and when patterns are placed (see Place), a
// reconciliation pass rebalances exactly the placed patterns whose replica
// groups changed — the groups the newcomer joins (and a recovered station
// is topped up with only what it missed or holds stale), and nothing else
// moves.
//
// Stations do not know which residents are placed copies, so a member whose
// handshake reports any joins addressed: a durable station rejoining with
// placed copies only is visited whenever its digest admits (see Unplace).
func (c *Cluster) AddStation(ctx context.Context, m Member) error {
	if ctx == nil {
		ctx = context.Background()
	}
	mux, done, sr, err := c.admit(ctx, &m)
	if err == nil {
		c.mu.Lock()
		if err = c.refusalLocked(m.ID); err == nil {
			c.invalidateLayoutLocked()
			c.addressed[m.ID] = sr.Residents > 0
			c.figures[m.ID] = sr
			c.addMemberLocked(m.ID, mux)
		}
		c.mu.Unlock()
	}
	if err != nil {
		if mux != nil {
			_ = mux.Close()
		}
		if done != nil {
			<-done
		}
		m.release()
		return err
	}
	c.summaries.invalidate(m.ID)
	c.heal(ctx)
	return nil
}

// admit runs everything a join does before taking the membership lock: the
// refusals that cost nothing, then wiring (recovery; an in-process station
// starts serving), then the handshake, whose reply sr seeds the figures. A
// refusal after wiring still returns mux and done for AddStation to release.
func (c *Cluster) admit(ctx context.Context, m *Member) (mux *transport.Mux, done <-chan struct{}, sr wire.StatsReply, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, sr, fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	c.mu.Lock()
	err = c.refusalLocked(m.ID)
	c.mu.Unlock()
	if err == nil {
		err = m.check(c.length)
	}
	if err == nil {
		mux, done, err = c.wire(m)
	}
	if err != nil {
		return nil, nil, sr, err
	}
	replies, err := c.handshake(ctx, []uint32{m.ID}, []*transport.Mux{mux})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
		}
		return mux, done, sr, err
	}
	return mux, done, replies[0], nil
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

// handshake is the join exchange every member passes, NewCluster's and
// AddStation's: one stats round over muxes (parallel to ids), concurrently.
// It returns each member's reply, or the first refusal in ids order
// whatever order the replies land in: a member that does not answer,
// answers in another wire version or holds patterns of a foreign length.
// The reply says whether the member is addressed and seeds its figures.
func (c *Cluster) handshake(ctx context.Context, ids []uint32, muxes []*transport.Mux) ([]wire.StatsReply, error) {
	replies := make([]wire.StatsReply, len(ids))
	errs := make([]error, len(ids))
	exchange(ctx, muxes, func(int) (wire.Message, error) { return wire.StatsMessage(), nil }, func(i int, reply wire.Message, err error) {
		if err == nil {
			replies[i], err = wire.DecodeStatsReply(reply)
		}
		if err != nil {
			errs[i] = fmt.Errorf("cluster: station %d handshake: %w", ids[i], err)
		} else if l := replies[i].Length; l != 0 && int(l) != c.length {
			errs[i] = fmt.Errorf("%w: station %d pattern length %d, cluster is %d", ErrLengthMismatch, ids[i], l, c.length)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return replies, nil
}

// RemoveStation shrinks the membership of a running cluster: the station
// leaves the next epoch, receives a best-effort shutdown frame (bounded by
// ctx and a grace period) and its link is closed. A search already in
// flight over a previous epoch sees the closure as a failed exchange and
// counts it in CostReport.StationsFailed — removal is never a search error.
// When patterns are placed (see Place), the departure triggers a
// reconciliation pass that re-replicates the copies the station held from
// their surviving replicas onto the new replica groups.
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
	c.invalidateLayoutLocked()
	delete(c.addressed, id)
	delete(c.figures, id)
	ids := make([]uint32, 0, len(c.ep.ids)-1)
	ids = append(append(ids, c.ep.ids[:i]...), c.ep.ids[i+1:]...)
	muxes := make([]*transport.Mux, 0, len(c.ep.muxes)-1)
	muxes = append(append(muxes, c.ep.muxes[:i]...), c.ep.muxes[i+1:]...)
	c.installEpochLocked(ids, muxes)
	c.mu.Unlock()
	c.summaries.invalidate(id)
	stopMux(ctx, mux)
	c.heal(ctx)
	return nil
}
