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
	"dimatch/internal/placement"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// DefaultReplication is the replica count Place uses when WithReplication is
// not given: every placed pattern survives any single station failure.
const DefaultReplication = 2

// healTimeout bounds the synchronous reconciliation a membership change
// triggers, so a stalled station cannot wedge KillStation or RemoveStation.
const healTimeout = 30 * time.Second

// placeConfig is one Place call's resolved knobs.
type placeConfig struct {
	replication int
}

// PlaceOption configures a single Place call.
type PlaceOption func(*placeConfig)

// WithReplication sets how many stations receive a copy of each placed
// pattern (default DefaultReplication). r is clamped to the number of alive
// stations at execution time, but the requested factor is what the table
// records: when the membership later grows, reconciliation tops placements
// back up to r.
func WithReplication(r int) PlaceOption {
	return func(c *placeConfig) { c.replication = r }
}

// HealReport summarizes one reconciliation pass over the placed patterns.
type HealReport struct {
	// Placed is the number of persons under automatic placement when the
	// pass started.
	Placed int
	// Copied counts (person, station) copies ingested onto new rendezvous
	// targets.
	Copied int
	// Removed counts stale (person, station) copies evicted from stations
	// that are no longer rendezvous targets.
	Removed int
	// Lost counts placed persons with no reachable copy anywhere — their
	// pattern cannot be restored. They stay in the table, so a later pass
	// retries if a holder was only transiently unreachable.
	Lost int
}

// placementTable returns the cluster's placement table, creating it on first
// use.
func (c *Cluster) placementTable() *placement.Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.placeTab == nil {
		c.placeTab = placement.NewTable()
	}
	return c.placeTab
}

// replicatedPred returns the predicate marking placed persons for the
// replica-aware aggregation, or nil when nothing is placed — the zero-cost
// path every purely station-addressed cluster stays on. The predicate
// remembers its first answer per person: a Place or Unplace landing
// mid-aggregation must not flip a person between the max-dedup and
// summation models halfway through their reports (summing onto an already
// maxed numerator would push a true match past 1 and delete it). The memo
// grows with the persons reported, not the persons placed, and is not
// synchronized: every caller consults the predicate from fanOut's serial
// reply handler.
func (c *Cluster) replicatedPred() func(core.PersonID) bool {
	c.mu.Lock()
	t := c.placeTab
	c.mu.Unlock()
	if t == nil || t.Len() == 0 {
		return nil
	}
	memo := make(map[core.PersonID]bool)
	return func(p core.PersonID) bool {
		v, ok := memo[p]
		if !ok {
			v = t.Contains(p)
			memo[p] = v
		}
		return v
	}
}

// Placed returns the number of persons under automatic placement.
func (c *Cluster) Placed() int {
	c.mu.Lock()
	t := c.placeTab
	c.mu.Unlock()
	if t == nil {
		return 0
	}
	return t.Len()
}

// aliveMembers snapshots the current epoch's non-dead stations.
func (c *Cluster) aliveMembers() (ids []uint32, muxes []*transport.Mux) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, id := range c.ep.ids {
		if c.dead[id] {
			continue
		}
		ids = append(ids, id)
		muxes = append(muxes, c.ep.muxes[i])
	}
	return ids, muxes
}

// Place ingests patterns under automatic placement: each person's pattern is
// copied to the r stations that win the rendezvous (HRW) hash of (person,
// station) over the currently alive membership, r per WithReplication
// (default DefaultReplication). Place serializes with reconciliation passes
// (and with Unplace), so an in-flight heal cannot interleave stale copies
// with a placement in progress. Unlike the station-addressed Ingest, the
// caller names no station — placement is the coordinator's job, and it is
// self-healing: when the membership changes, reconciliation re-replicates
// under-replicated patterns onto the survivors and rebalances the ones whose
// rendezvous winners changed.
//
// A placed person's replicas hold full copies of one pattern, so the search
// aggregation dedupes their reports (highest score wins) instead of summing
// them. Consequently a person must be either placed or station-addressed,
// never both: Place records the person as managed, and reconciliation will
// move their copies to the rendezvous targets, clobbering any
// station-addressed copy under the same ID. Use Unplace to release a person
// back to manual management.
//
// Partial failure is not fatal: a person who reached at least one station is
// recorded as placed (reconciliation restores the missing copies on the next
// membership change or Rebalance call); the error joins every failed station
// exchange. All-zero patterns are skipped entirely, matching the stations'
// ingest rule (no measurable activity means no pattern).
func (c *Cluster) Place(ctx context.Context, patterns map[core.PersonID]pattern.Pattern, opts ...PlaceOption) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Serialize against reconciliation: a heal that pulled copies before
	// this call must not push them back over the fresh placement after it.
	c.healMu.Lock()
	defer c.healMu.Unlock()
	cfg := placeConfig{replication: DefaultReplication}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.replication <= 0 {
		cfg.replication = DefaultReplication
	}
	if len(patterns) == 0 {
		return nil
	}
	if err := checkLengths(c.length, "place", patterns); err != nil {
		return err
	}
	alive, _ := c.aliveMembers()
	if len(alive) == 0 {
		return ErrNoAliveStations
	}

	// Group the copies by target station so each station receives one
	// ingest exchange regardless of how many persons land on it.
	perStation := make(map[uint32]map[core.PersonID]pattern.Pattern)
	targetsOf := make(map[core.PersonID][]uint32, len(patterns))
	for p, pat := range patterns {
		if pat.Sum() == 0 {
			// Stations drop all-zero patterns on ingest (no measurable
			// activity means no local pattern); recording such a person as
			// placed would leave an intent no copy can ever satisfy, counted
			// Lost by every reconciliation forever.
			continue
		}
		targets := placement.Pick(p, alive, cfg.replication)
		targetsOf[p] = targets
		for _, sid := range targets {
			g := perStation[sid]
			if g == nil {
				g = make(map[core.PersonID]pattern.Pattern)
				perStation[sid] = g
			}
			g[p] = pat
		}
	}
	// Record the intents BEFORE pushing any copy: a search starting between
	// the first ingest and the table update would otherwise sum the replica
	// reports (the person is not marked yet) and delete the person as
	// over-matched. The early mark is harmless the other way around —
	// max-dedup over zero or one reports ranks identically to summation.
	// Persons whose every target fails are rolled back below.
	tab := c.placementTable()
	prior := make(map[core.PersonID]int)
	for p := range targetsOf {
		if r, ok := tab.Factor(p); ok {
			prior[p] = r
		}
		tab.Set(p, cfg.replication)
	}

	failed, errs := c.ingestGrouped(ctx, perStation, "place on")

	for p, targets := range targetsOf {
		landed := false
		for _, sid := range targets {
			if !failed[sid] {
				landed = true
				break
			}
		}
		if !landed {
			// Nothing of this person reached any station: restore whatever
			// intent existed before the call.
			if r, ok := prior[p]; ok {
				tab.Set(p, r)
			} else {
				tab.Remove(p)
			}
		}
	}
	return errors.Join(errs...)
}

// groupedFanOut runs one mutation exchange per station concurrently — a
// heal after a kill must not pay one sequential round trip per surviving
// station — and reports the stations whose exchange failed, errors in
// ascending station order.
func groupedFanOut[T any](perStation map[uint32]T, what string, do func(sid uint32, payload T) error) (failed map[uint32]bool, errs []error) {
	stations := make([]uint32, 0, len(perStation))
	for sid := range perStation {
		stations = append(stations, sid)
	}
	sort.Slice(stations, func(i, j int) bool { return stations[i] < stations[j] })

	perErr := make([]error, len(stations))
	var wg sync.WaitGroup
	for i, sid := range stations {
		i, sid := i, sid
		wg.Add(1)
		go func() {
			defer wg.Done()
			perErr[i] = do(sid, perStation[sid])
		}()
	}
	wg.Wait()

	failed = make(map[uint32]bool)
	for i, sid := range stations {
		if perErr[i] != nil {
			failed[sid] = true
			errs = append(errs, fmt.Errorf("%s station %d: %w", what, sid, perErr[i]))
		}
	}
	return failed, errs
}

// ingestGrouped pushes one grouped ingest exchange per target station.
func (c *Cluster) ingestGrouped(ctx context.Context, perStation map[uint32]map[core.PersonID]pattern.Pattern, what string) (failed map[uint32]bool, errs []error) {
	return groupedFanOut(perStation, what, func(sid uint32, patterns map[core.PersonID]pattern.Pattern) error {
		return c.Ingest(ctx, sid, patterns)
	})
}

// evictGrouped is ingestGrouped's counterpart: one concurrent evict
// exchange per station.
func (c *Cluster) evictGrouped(ctx context.Context, perStation map[uint32][]core.PersonID, what string) (failed map[uint32]bool, errs []error) {
	return groupedFanOut(perStation, what, func(sid uint32, persons []core.PersonID) error {
		return c.Evict(ctx, sid, persons)
	})
}

// Unplace releases persons from automatic placement: their copies are
// evicted from every alive station and the placement table forgets them.
// Persons that were never placed are ignored. On a failed eviction the table
// keeps the affected persons (their copies may still exist, so the
// replica-aware dedup must stay in force) and the error is returned; calling
// Unplace again retries.
func (c *Cluster) Unplace(ctx context.Context, persons []core.PersonID) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Serialize against reconciliation: an in-flight heal could otherwise
	// re-ingest copies it pulled before this eviction, leaving orphaned,
	// unmanaged replicas of a person Unplace reported released.
	c.healMu.Lock()
	defer c.healMu.Unlock()
	c.mu.Lock()
	t := c.placeTab
	c.mu.Unlock()
	if t == nil {
		return nil
	}
	placed := make([]core.PersonID, 0, len(persons))
	for _, p := range persons {
		if t.Contains(p) {
			placed = append(placed, p)
		}
	}
	if len(placed) == 0 {
		return nil
	}
	alive, _ := c.aliveMembers()
	perStation := make(map[uint32][]core.PersonID, len(alive))
	for _, sid := range alive {
		perStation[sid] = placed
	}
	if _, errs := c.evictGrouped(ctx, perStation, "unplace on"); len(errs) > 0 {
		return errors.Join(errs...)
	}
	for _, p := range placed {
		t.Remove(p)
	}
	return nil
}

// Rebalance runs one reconciliation pass over the placed patterns: it pulls
// the placed persons' copies from the alive stations (KindDump), recomputes
// every person's rendezvous targets over the alive membership, ingests the
// missing copies onto new targets and evicts stale copies from stations that
// are no longer targets. Membership changes trigger this automatically;
// calling it explicitly is useful after transient failures or to inspect the
// placement's health.
//
// The pass is conservative: stale copies are only evicted when every missing
// copy was ingested successfully, so a partially failed pass never reduces a
// pattern's replica count. Persons with no reachable copy are counted in
// HealReport.Lost and left in the table for later retries.
func (c *Cluster) Rebalance(ctx context.Context) (HealReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// One pass at a time: concurrent membership changes queue their heals
	// rather than interleaving conflicting move plans.
	c.healMu.Lock()
	defer c.healMu.Unlock()

	c.mu.Lock()
	closed, t := c.closed, c.placeTab
	c.mu.Unlock()
	alive, muxes := c.aliveMembers()
	if closed {
		return HealReport{}, ErrClusterClosed
	}
	if t == nil || t.Len() == 0 {
		return HealReport{}, nil
	}
	// One snapshot drives the whole pass: deriving the dump filter from a
	// second table read would let a concurrent Unplace strand a person in
	// intents but out of the filter, spuriously counted as lost.
	intents := t.Snapshot()
	keys := make([]core.PersonID, 0, len(intents))
	for p := range intents {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	report := HealReport{Placed: len(intents)}

	if len(alive) == 0 {
		report.Lost = len(intents)
		return report, ErrNoAliveStations
	}

	// Pull the placed persons' copies from every alive station.
	results := roundtripAll(ctx, muxes, wire.EncodeDump(wire.Dump{Persons: keys}))
	if err := ctx.Err(); err != nil {
		return report, fmt.Errorf("%w: %w", ErrCancelled, err)
	}

	holders := make(map[core.PersonID]map[uint32]bool, len(intents))
	copies := make(map[core.PersonID]pattern.Pattern, len(intents))
	for i, r := range results {
		if r.err != nil {
			continue
		}
		reply, err := wire.DecodeDumpReply(r.reply)
		if err != nil {
			continue
		}
		for j, p := range reply.Persons {
			if _, placed := intents[p]; !placed {
				continue
			}
			hs := holders[p]
			if hs == nil {
				hs = make(map[uint32]bool, 2)
				holders[p] = hs
			}
			hs[alive[i]] = true
			if _, ok := copies[p]; !ok && len(reply.Locals[j]) == c.length {
				copies[p] = reply.Locals[j]
			}
		}
	}

	// Plan the moves: every person's targets are recomputed from scratch, so
	// the same pass covers under-replication (a holder died), rebalancing (a
	// new station out-scores an incumbent) and topping up after the
	// membership grew past a previously clamped factor.
	adds := make(map[uint32]map[core.PersonID]pattern.Pattern)
	dels := make(map[uint32][]core.PersonID)
	for p, r := range intents {
		pat, ok := copies[p]
		if !ok {
			report.Lost++
			continue
		}
		targets := placement.Pick(p, alive, r)
		targetSet := make(map[uint32]bool, len(targets))
		for _, sid := range targets {
			targetSet[sid] = true
			if !holders[p][sid] {
				g := adds[sid]
				if g == nil {
					g = make(map[core.PersonID]pattern.Pattern)
					adds[sid] = g
				}
				g[p] = pat
			}
		}
		for sid := range holders[p] {
			if !targetSet[sid] {
				dels[sid] = append(dels[sid], p)
			}
		}
	}

	// Copied/Removed count completed work, not the plan: a partially failed
	// pass must not report healing that never happened. Both phases fan out
	// concurrently, one grouped exchange per station.
	failedAdds, errs := c.ingestGrouped(ctx, adds, "re-replicate to")
	for sid, g := range adds {
		if !failedAdds[sid] {
			report.Copied += len(g)
		}
	}
	if len(errs) == 0 {
		// A failed ingest means the plan is stale; keep the extra copies.
		failedDels, delErrs := c.evictGrouped(ctx, dels, "rebalance evict on")
		errs = delErrs
		for sid, ps := range dels {
			if !failedDels[sid] {
				report.Removed += len(ps)
			}
		}
	}
	return report, errors.Join(errs...)
}

// heal is the membership-change hook: a best-effort, bounded reconciliation.
// It is a no-op while nothing is placed, so purely station-addressed
// clusters never pay for it. Errors are swallowed — reconciliation is
// idempotent and the next membership change (or an explicit Rebalance)
// retries.
func (c *Cluster) heal(ctx context.Context) {
	if c.Placed() == 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, healTimeout)
	defer cancel()
	_, _ = c.Rebalance(ctx)
}
