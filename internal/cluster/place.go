package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// Copied counts (person, station) copies ingested: onto a station that
	// newly joined the person's replica set, or over a stale copy.
	Copied int
	// Removed counts (person, station) copies evicted from stations that
	// are no longer in the person's replica set.
	Removed int
	// Lost counts placed persons with no reachable current copy anywhere —
	// their pattern cannot be restored. They stay in the table, so a later
	// pass retries if a holder was only transiently unreachable.
	Lost int
}

// placeLayout is the cluster's clean-layout record (Cluster.layout).
type placeLayout struct {
	ids []uint32 // sorted; meaningful only while ok
	ok  bool
	gen uint64
}

// invalidateLayoutLocked drops the clean-layout record: until a heal
// restores it, routed searches plan without the group rule. Callers hold
// c.mu.
func (c *Cluster) invalidateLayoutLocked() {
	c.layout = placeLayout{gen: c.layout.gen + 1}
}

func (c *Cluster) invalidateLayout() {
	c.mu.Lock()
	c.invalidateLayoutLocked()
	c.mu.Unlock()
}

// placementView snapshots what a placement pass works over: the alive
// members, and the layout generation and validity it started under.
func (c *Cluster) placementView() (ids []uint32, muxes []*transport.Mux, gen uint64, clean bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, id := range c.ep.ids {
		if !c.dead[id] {
			ids = append(ids, id)
			muxes = append(muxes, c.ep.muxes[i])
		}
	}
	return ids, muxes, c.layout.gen, c.layout.ok
}

// recordLayout marks alive as the clean layout, unless an invalidation
// happened since the pass that placed over it read gen.
func (c *Cluster) recordLayout(gen uint64, alive []uint32) {
	c.mu.Lock()
	if c.layout.gen == gen {
		c.layout = placeLayout{ids: alive, ok: true, gen: gen}
	}
	c.mu.Unlock()
}

// touchesPlaced reports whether any of persons is under automatic
// placement. A public Ingest or Evict of a placed person makes its copies
// differ, so the caller invalidates the layout.
func (c *Cluster) touchesPlaced(persons []core.PersonID) bool {
	c.mu.Lock()
	t := c.placeTab
	c.mu.Unlock()
	if t == nil {
		return false
	}
	for _, p := range persons {
		if t.Contains(p) {
			return true
		}
	}
	return false
}

// placementTable returns the cluster's placement table, creating it on first
// use with room for hint persons: the first Place sizes it for its rows.
func (c *Cluster) placementTable(hint int) *placement.Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.placeTab == nil {
		c.placeTab = placement.NewTable(hint)
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
	ids, muxes, _, _ = c.placementView()
	return ids, muxes
}

// copyPlan is one Place call's grouping of its persons' copies: each
// person's Pick set as indexes into the alive stations, the content hash its
// intent records, and each target station's rows as ascending indexes into
// the call's person-ascending row set.
type copyPlan struct {
	width      int                // copies per person: min(r, len(alive))
	targets    []uint32           // targets[i*width:(i+1)*width] index alive for row i
	hashes     []uint64           // placement.ContentHash of row i's pattern
	perStation map[uint32][]int32 // each target station's rows, ascending
}

// planCopies groups rows (person-ascending, every pattern non-zero) by
// target station over alive (ascending). A person's targets are
// placement.PickIndexes's, Pick's set, over salts computed once per call.
// Every station's row list is a window of one index array, 4 bytes per
// copy, filled by a counting pass over the targets.
func planCopies(rows wire.Ingest, alive []uint32, r int) copyPlan {
	w := min(r, len(alive))
	pl := copyPlan{
		width:   w,
		targets: make([]uint32, 0, len(rows.Persons)*w),
		hashes:  make([]uint64, len(rows.Persons)),
	}
	salts := placement.AppendSalts(nil, alive)
	for i, p := range rows.Persons {
		pl.hashes[i] = placement.ContentHash(rows.Locals[i])
		pl.targets = placement.PickIndexes(p, salts, r, pl.targets)
	}

	// starts[k] is where station k's rows begin in index.
	starts := make([]int, len(alive)+1)
	for _, k := range pl.targets {
		starts[k+1]++
	}
	for k := range alive {
		starts[k+1] += starts[k]
	}
	index := make([]int32, len(pl.targets))
	fill := slices.Clone(starts[:len(alive)])
	for i := range rows.Persons {
		for _, k := range pl.targets[i*w : (i+1)*w] {
			index[fill[k]] = int32(i)
			fill[k]++
		}
	}
	pl.perStation = make(map[uint32][]int32, len(alive))
	for k, sid := range alive {
		if lo, hi := starts[k], starts[k+1]; hi > lo {
			pl.perStation[sid] = index[lo:hi:hi]
		}
	}
	return pl
}

// Place ingests patterns under automatic placement: each person's pattern is
// copied to its chained replica set over the currently alive membership —
// the station that wins the rendezvous (HRW) hash of (person, station) and
// its r−1 successors in station-ID order (placement.Pick), r per
// WithReplication (default DefaultReplication). Place serializes with
// reconciliation passes (and with Unplace), so an in-flight heal cannot
// interleave stale copies with a placement in progress. Unlike the
// station-addressed Ingest, the caller names no station — placement is the
// coordinator's job, and it is self-healing: when the membership changes,
// reconciliation re-replicates under-replicated patterns onto the survivors
// and rebalances the ones whose replica groups changed.
//
// A placed person's replicas hold full copies of one pattern, so the search
// aggregation dedupes their reports (highest score wins) instead of summing
// them. Consequently a person must be either placed or station-addressed,
// never both: Place records the person as managed, and reconciliation will
// move their copies to the replica group, clobbering any
// station-addressed copy under the same ID. Use Unplace to release a person
// back to manual management.
//
// Partial failure is not fatal: a person who reached at least one station is
// recorded as placed (reconciliation restores the missing copies on the next
// membership change or Rebalance call); the error joins every failed station
// exchange. unplaced lists the persons who reached no station, ascending —
// all of them when the call fails before any exchange — so a caller can
// retry exactly those. All-zero patterns are skipped entirely, matching the
// stations' ingest rule (no measurable activity means no pattern).
//
// The caller's map is walked once for its persons, which are sorted once
// into one person-ascending row set; their targets and content hashes are
// computed into flat arrays, and every target station receives one ingest
// exchange encoded straight from that row set through the station's index
// list, however many persons land on it.
func (c *Cluster) Place(ctx context.Context, patterns map[core.PersonID]pattern.Pattern, opts ...PlaceOption) (unplaced []core.PersonID, err error) {
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
		return nil, nil
	}
	alive, _, gen, clean := c.placementView()
	// One pass over the caller's map checks every length and drops all-zero
	// patterns: stations drop them on ingest (no measurable activity means no
	// local pattern), and recording such a person as placed would leave an
	// intent no copy can ever satisfy, counted Lost by every reconciliation
	// forever.
	rows := wire.Ingest{Persons: make([]core.PersonID, 0, len(patterns))}
	for p, pat := range patterns {
		if len(pat) != c.length {
			err = lengthMismatch("place", p, len(pat), c.length)
			break
		}
		if pat.Sum() != 0 {
			rows.Persons = append(rows.Persons, p)
		}
	}
	if err == nil && len(alive) == 0 {
		err = ErrNoAliveStations
	}
	if err != nil {
		unplaced = make([]core.PersonID, 0, len(patterns))
		for p := range patterns {
			unplaced = append(unplaced, p)
		}
		slices.Sort(unplaced)
		return unplaced, err
	}
	if len(rows.Persons) == 0 {
		return nil, nil
	}
	slices.Sort(rows.Persons)
	rows.Locals = make([]pattern.Pattern, len(rows.Persons))
	for i, p := range rows.Persons {
		rows.Locals[i] = patterns[p]
	}
	plan := planCopies(rows, alive, cfg.replication)
	// Record the intents BEFORE pushing any copy: a search starting between
	// the first ingest and the table update would otherwise sum the replica
	// reports (the person is not marked yet) and delete the person as
	// over-matched. The early mark is harmless the other way around —
	// max-dedup over zero or one reports ranks identically to summation.
	// Persons whose every target fails are rolled back below.
	tab := c.placementTable(len(rows.Persons))
	others := tab.Len() // persons placed by earlier calls, counted down below
	prior := make(map[core.PersonID]placement.Entry)
	refactored := false // a person's factor changes: its old copies may lie off the new set
	for i, p := range rows.Persons {
		if e, ok := tab.Get(p); ok {
			prior[p] = e
			others--
			refactored = refactored || e.Factor != cfg.replication
		}
		tab.Set(p, placement.Entry{Factor: cfg.replication, Hash: plan.hashes[i]})
	}

	failed, errs := c.ingestGrouped(ctx, rows, plan.perStation, "place on")
	switch {
	case len(errs) > 0 || refactored:
		c.invalidateLayout()
	case clean || others == 0:
		// Every placed person now sits on its Pick set over alive: the
		// earlier ones because the layout was clean, or because there are
		// none.
		c.recordLayout(gen, alive)
	}

	for i, p := range rows.Persons {
		landed := false
		for _, k := range plan.targets[i*plan.width : (i+1)*plan.width] {
			if !failed[alive[k]] {
				landed = true
				break
			}
		}
		if !landed {
			// Nothing of this person reached any station: restore whatever
			// intent existed before the call, factor and content both.
			if e, ok := prior[p]; ok {
				tab.Set(p, e)
			} else {
				tab.Remove(p)
			}
			unplaced = append(unplaced, p)
		}
	}
	return unplaced, errors.Join(errs...)
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
	slices.Sort(stations)

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

// ingestGrouped pushes one grouped ingest exchange per target station,
// through the internal path that leaves the stations unaddressed. rows is
// person-ascending and of the cluster's length, and every station's frame is
// encoded from it through the station's ascending index list.
func (c *Cluster) ingestGrouped(ctx context.Context, rows wire.Ingest, perStation map[uint32][]int32, what string) (failed map[uint32]bool, errs []error) {
	return groupedFanOut(perStation, what, func(sid uint32, index []int32) error {
		return c.ingest(ctx, sid, rows, index, false)
	})
}

// evictGrouped is ingestGrouped's counterpart: one concurrent evict
// exchange per station.
func (c *Cluster) evictGrouped(ctx context.Context, perStation map[uint32][]core.PersonID, what string) (failed map[uint32]bool, errs []error) {
	return groupedFanOut(perStation, what, func(sid uint32, persons []core.PersonID) error {
		return c.evict(ctx, sid, persons)
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
		// Some copies of the kept persons may be gone: their replicas differ.
		c.invalidateLayout()
		return errors.Join(errs...)
	}
	for _, p := range placed {
		t.Remove(p)
	}
	return nil
}

// Rebalance runs one reconciliation pass over the placed patterns: it pulls
// the placed persons' copies from the alive stations (KindDump), recomputes
// every person's replica set over the alive membership, ingests the missing
// copies onto new targets and evicts stale copies from stations that are no
// longer targets. A copy counts only if it matches the content hash the
// placement table recorded at the last Place: a replica that missed an
// upsert (it was away when the person was placed again) is re-ingested with
// the current copy, never taken as one. Membership changes trigger this
// automatically; calling it explicitly is useful after transient failures or
// to inspect the placement's health.
//
// The pass is conservative: stale copies are only evicted when every missing
// copy was ingested successfully, so a partially failed pass never reduces a
// pattern's replica count. Persons with no reachable current copy are
// counted in HealReport.Lost, their copies are left alone, and they stay in
// the table for later retries. A pass that pulled from every alive station,
// lost nothing and failed no exchange leaves the layout clean: routed
// searches may then visit one replica per group (planRoute).
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
	alive, muxes, gen, _ := c.placementView()
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
	slices.Sort(keys)
	report := HealReport{Placed: len(intents)}

	if len(alive) == 0 {
		report.Lost = len(intents)
		return report, ErrNoAliveStations
	}

	// Pull the placed persons' copies from every alive station.
	results := roundtripAll(ctx, muxes, wire.EncodeDump(wire.Dump{Persons: keys}))
	if err := ctx.Err(); err != nil {
		c.invalidateLayout()
		return report, fmt.Errorf("%w: %w", ErrCancelled, err)
	}

	// holders[p] are the stations holding p's current copy, stale[p] those
	// holding any other.
	holders := make(map[core.PersonID]map[uint32]bool, len(intents))
	stale := make(map[core.PersonID]map[uint32]bool)
	copies := make(map[core.PersonID]pattern.Pattern, len(intents))
	pulledAll := true
	for i, r := range results {
		if r.err != nil {
			pulledAll = false
			continue
		}
		reply, err := wire.DecodeDumpReply(r.reply)
		if err != nil {
			pulledAll = false
			continue
		}
		for j, p := range reply.Persons {
			e, placed := intents[p]
			if !placed {
				continue
			}
			l := reply.Locals[j]
			into := stale
			if len(l) == c.length && placement.ContentHash(l) == e.Hash {
				into = holders
				if _, ok := copies[p]; !ok {
					copies[p] = l
				}
			}
			hs := into[p]
			if hs == nil {
				hs = make(map[uint32]bool, 2)
				into[p] = hs
			}
			hs[alive[i]] = true
		}
	}

	// Plan the moves: every person's targets are recomputed from scratch, so
	// the same pass covers under-replication (a holder died), rebalancing (a
	// new station joined the replica set), stale copies and topping up after
	// the membership grew past a previously clamped factor.
	// The persons some target lacks form one person-ascending row set,
	// walked from the sorted keys, so every station's index list ascends.
	var rows wire.Ingest
	adds := make(map[uint32][]int32)
	dels := make(map[uint32][]core.PersonID)
	for _, p := range keys {
		pat, ok := copies[p]
		if !ok {
			report.Lost++
			continue
		}
		targets := placement.Pick(p, alive, intents[p].Factor)
		targetSet := make(map[uint32]bool, len(targets))
		row := -1
		for _, sid := range targets {
			targetSet[sid] = true
			if !holders[p][sid] {
				if row < 0 {
					row = len(rows.Persons)
					rows.Persons = append(rows.Persons, p)
					rows.Locals = append(rows.Locals, pat)
				}
				adds[sid] = append(adds[sid], int32(row))
			}
		}
		for _, hs := range []map[uint32]bool{holders[p], stale[p]} {
			for sid := range hs {
				if !targetSet[sid] {
					dels[sid] = append(dels[sid], p)
				}
			}
		}
	}

	// Copied/Removed count completed work, not the plan: a partially failed
	// pass must not report healing that never happened. Both phases fan out
	// concurrently, one grouped exchange per station.
	failedAdds, errs := c.ingestGrouped(ctx, rows, adds, "re-replicate to")
	for sid, index := range adds {
		if !failedAdds[sid] {
			report.Copied += len(index)
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
	if len(errs) == 0 && pulledAll && report.Lost == 0 {
		c.recordLayout(gen, alive)
	} else {
		c.invalidateLayout()
	}
	return report, errors.Join(errs...)
}

// heal is the membership-change hook: a best-effort, bounded reconciliation.
// It always queues on healMu, even while nothing is placed, so it runs after
// any Place already in flight — a Place that computed its targets over the
// old membership and whose copies the change stranded. A pass over an empty
// table returns at once, so purely station-addressed clusters pay one lock.
// Errors are swallowed — reconciliation is idempotent and the next
// membership change (or an explicit Rebalance) retries.
func (c *Cluster) heal(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, healTimeout)
	defer cancel()
	_, _ = c.Rebalance(ctx)
}
