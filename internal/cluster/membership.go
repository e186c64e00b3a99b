package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// KillStation severs one station's link, simulating a failure. The station
// stays a member — the data center is not told: subsequent (and in-flight)
// searches discover the failure when their exchange fails and count it in
// CostReport.StationsFailed. Use RemoveStation for a deliberate departure.
//
// When patterns are placed (see Place), the kill triggers a reconciliation
// pass: copies the dead station held are re-replicated from their surviving
// replicas onto the persons' new replica groups, restoring the requested
// replication factor.
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
	c.invalidateLayoutLocked()
	c.dead[id] = true
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
// by the station (no measurable activity means no local pattern). The
// station is addressed from then on: routing never skips it as a redundant
// replica (planRoute).
func (c *Cluster) Ingest(ctx context.Context, stationID uint32, patterns map[core.PersonID]pattern.Pattern) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(patterns) == 0 {
		return nil
	}
	if err := checkLengths(c.length, "ingest", patterns); err != nil {
		return err
	}
	in := wire.Ingest{Persons: make([]core.PersonID, 0, len(patterns))}
	for p := range patterns {
		in.Persons = append(in.Persons, p)
	}
	slices.Sort(in.Persons)
	in.Locals = make([]pattern.Pattern, len(in.Persons))
	for i, p := range in.Persons {
		in.Locals[i] = patterns[p]
	}
	return c.ingest(ctx, stationID, in, nil, true)
}

// ingest carries one ingest exchange of the rows of in that index lists
// (every row when index is nil), person-ascending and of the cluster's
// length: Ingest's, and the grouped copies Place and reconciliation push
// from one shared row set with addressed false, which leaves the station
// unaddressed. An addressed ingest passes every row.
func (c *Cluster) ingest(ctx context.Context, stationID uint32, in wire.Ingest, index []int32, addressed bool) error {
	if len(in.Persons) == 0 || index != nil && len(index) == 0 {
		return nil
	}
	if addressed {
		placed := c.touchesPlaced(in.Persons)
		c.mu.Lock()
		if c.ep.find(stationID) >= 0 && c.roles[stationID] != roleDelegate {
			c.roles[stationID] = roleAddressed
		}
		if placed {
			c.invalidateLayoutLocked()
		}
		c.mu.Unlock()
	}
	payload, err := wire.AppendIngestPayload(nil, in, index)
	if err != nil {
		return err
	}
	if err := c.mutate(ctx, stationID, wire.Message{Kind: wire.KindIngest, Payload: payload}); err != nil {
		// The exchange failed, but the frame may still have been delivered
		// and applied (a lost reply, a deadline while awaiting it). A cached
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
	c.summaries.noteIngest(stationID, in.Locals, index)
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
	if c.touchesPlaced(persons) {
		c.invalidateLayout()
	}
	return c.evict(ctx, stationID, persons)
}

// evict is Evict for the placement paths, which keep the layout themselves.
func (c *Cluster) evict(ctx context.Context, stationID uint32, persons []core.PersonID) error {
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

// mutate runs one mutation exchange against a member station. The station
// answers with its figures after the mutation, which replace the member's
// entry in c.figures while the same link still serves the id. Concurrent
// mutations hand their replies over in any order, so a reply older (by Seq)
// than the recorded one is dropped.
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
	sr, err := wire.DecodeStatsReply(reply)
	if err != nil {
		return fmt.Errorf("cluster: station %d: %w", id, err)
	}
	c.mu.Lock()
	if i := c.ep.find(id); i >= 0 && c.ep.muxes[i] == mux && sr.Seq >= c.figures[id].Seq {
		c.figures[id] = sr
	}
	c.mu.Unlock()
	return nil
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
// before the store is recovered, and closes the member's link and store. A
// link member must pass the stats handshake New also runs: it must answer,
// patterns it already holds must match the cluster's length, and its reply
// says whether it is a region coordinator. A durable member recovers
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
func (c *Cluster) AddStation(ctx context.Context, m Member) error {
	if ctx == nil {
		ctx = context.Background()
	}
	mux, st, sr, err := c.admit(ctx, m)
	if err != nil {
		m.release()
		return err
	}
	c.mu.Lock()
	if err := c.refusalLocked(m.ID); err != nil {
		c.mu.Unlock()
		_ = mux.Close()
		m.release()
		return err
	}
	if st != nil {
		if c.started {
			c.serveLocked(st)
		} else {
			c.pending = append(c.pending, st)
		}
	}
	c.invalidateLayoutLocked()
	c.roles[m.ID] = statsRole(sr)
	c.figures[m.ID] = sr
	c.addMemberLocked(m.ID, mux)
	c.mu.Unlock()
	c.summaries.invalidate(m.ID)
	c.heal(ctx)
	return nil
}

// admit runs everything a join does before taking the membership lock: the
// refusals that cost nothing, then wiring (recovery), then a link member's
// handshake. sr is the member's figures at its join, read from an
// in-process station before it serves.
func (c *Cluster) admit(ctx context.Context, m Member) (mux *transport.Mux, st *Station, sr wire.StatsReply, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, sr, fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	c.mu.Lock()
	err = c.refusalLocked(m.ID)
	c.mu.Unlock()
	if err == nil {
		err = m.check(c.length)
	}
	if err != nil {
		return nil, nil, sr, err
	}
	mux, st, err = m.wire(c.length)
	switch {
	case err != nil:
	case m.Link != nil:
		var replies []wire.StatsReply
		replies, err = c.handshake(ctx, []uint32{m.ID}, []*transport.Mux{mux}) // on failure, release closes the link under the mux
		if ctxErr := ctx.Err(); err != nil && ctxErr != nil {
			err = fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
		} else if err == nil {
			sr = replies[0]
		}
	default:
		sr = st.stats()
	}
	return mux, st, sr, err
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

// handshake is the join exchange every link member passes, New's and
// AddStation's: one stats round over muxes (parallel to ids), concurrently.
// It returns each member's reply, or the first refusal in ids order: a
// member that does not answer, answers in another wire version or holds
// patterns of a foreign length. The reply fixes the member's kind for its
// whole membership (statsRole) and seeds its figures.
func (c *Cluster) handshake(ctx context.Context, ids []uint32, muxes []*transport.Mux) ([]wire.StatsReply, error) {
	replies := make([]wire.StatsReply, len(ids))
	for i, r := range roundtripAll(ctx, muxes, wire.StatsMessage()) {
		err := r.err
		var sr wire.StatsReply
		if err == nil {
			sr, err = wire.DecodeStatsReply(r.reply)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: station %d handshake: %w", ids[i], err)
		}
		if sr.Length != 0 && int(sr.Length) != c.length {
			return nil, fmt.Errorf("%w: station %d pattern length %d, cluster is %d", ErrLengthMismatch, ids[i], sr.Length, c.length)
		}
		replies[i] = sr
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
	wasDead := c.dead[id]
	c.invalidateLayoutLocked()
	delete(c.dead, id)
	delete(c.roles, id)
	delete(c.figures, id)
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
	if !wasDead {
		stopMux(ctx, mux)
	}
	c.heal(ctx)
	return nil
}
