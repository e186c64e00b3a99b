package cluster

import (
	"context"
	"errors"
	"fmt"
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
	if err := checkLengths(c.length, "ingest", patterns); err != nil {
		return err
	}
	for p := range patterns {
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

// join is the one membership-growth path behind AddStation, AddStoredStation
// and AddStationLink. It takes ownership of mux (closed if the join is
// refused), serves st when the member is in-process, installs the next epoch
// and runs the hooks every join owes: a departed member may have left a
// digest under the same id, so the summary slot starts cold; streaming
// pipelines re-key; placed patterns rebalance onto the newcomer.
func (c *Cluster) join(ctx context.Context, id uint32, mux *transport.Mux, st *Station) error {
	c.mu.Lock()
	if err := c.refusalLocked(id); err != nil {
		c.mu.Unlock()
		_ = mux.Close()
		return err
	}
	if st != nil {
		if c.started {
			c.serveLocked(st)
		} else {
			c.pending = append(c.pending, st)
		}
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

// checkJoin is the shared pre-check of the in-process joins: a live context
// and seed patterns of the cluster's length.
func (c *Cluster) checkJoin(ctx context.Context, id uint32, locals map[core.PersonID]pattern.Pattern) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	return checkLengths(c.length, fmt.Sprintf("station %d", id), locals)
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
	if err := c.checkJoin(ctx, id, locals); err != nil {
		return err
	}
	mux, st, _ := c.plainMember(id, locals) // building an in-memory station cannot fail
	return c.join(ctx, id, mux, st)
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
	// Refuse a doomed join before spending a round trip on it.
	c.mu.Lock()
	err := c.refusalLocked(id)
	c.mu.Unlock()
	if err == nil {
		err = c.handshake(ctx, id, mux)
	}
	if err != nil {
		_ = mux.Close()
		return err
	}
	return c.join(ctx, id, mux, nil)
}

// handshake is the stats exchange a link-joined station must pass.
func (c *Cluster) handshake(ctx context.Context, id uint32, mux *transport.Mux) error {
	reply, err := mux.Roundtrip(ctx, wire.StatsMessage())
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
		}
		return fmt.Errorf("cluster: station %d handshake: %w", id, err)
	}
	sr, err := wire.DecodeStatsReply(reply)
	if err != nil {
		return fmt.Errorf("cluster: station %d handshake: %w", id, err)
	}
	if sr.Length != 0 && int(sr.Length) != c.length {
		return fmt.Errorf("%w: station %d pattern length %d, cluster is %d", ErrLengthMismatch, id, sr.Length, c.length)
	}
	return nil
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
