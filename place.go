package dimatch

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

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

// PlaceOption configures a single Place call (see WithReplication).
type PlaceOption func(*placeConfig)

// WithReplication sets how many stations receive a copy of each placed
// pattern (default DefaultReplication). r is clamped to the number of alive
// stations at execution time, but the requested factor is what the table
// records: when the membership later grows, reconciliation tops placements
// back up to r.
func WithReplication(r int) PlaceOption {
	return func(c *placeConfig) { c.replication = r }
}

// HealReport summarizes one reconciliation pass — re-replication and
// rebalancing — over the placed patterns (see Rebalance).
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

// placementView snapshots what a placement pass works over: the up
// members, and the layout generation and validity it started under.
func (c *Cluster) placementView() (ids []uint32, muxes []*transport.Mux, gen uint64, clean bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, id := range c.ep.ids {
		if c.ep.up(i) {
			ids = append(ids, id)
			muxes = append(muxes, c.ep.muxes[i])
		}
	}
	return ids, muxes, c.layout.gen, c.layoutHeldLocked(c.ep)
}

// layoutHeldLocked reports whether the recorded layout is clean over ep:
// recorded, and every station it names a member of ep whose link is up.
func (c *Cluster) layoutHeldLocked(ep *epoch) bool {
	if !c.layout.ok {
		return false
	}
	for _, id := range c.layout.ids {
		if i := ep.find(id); i < 0 || !ep.up(i) {
			return false
		}
	}
	return true
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
func (c *Cluster) touchesPlaced(persons []PersonID) bool {
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
func (c *Cluster) replicatedPred() func(PersonID) bool {
	c.mu.Lock()
	t := c.placeTab
	c.mu.Unlock()
	if t == nil || t.Len() == 0 {
		return nil
	}
	memo := make(map[PersonID]bool)
	return func(p PersonID) bool {
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

// aliveMembers snapshots the current epoch's members whose link is up.
func (c *Cluster) aliveMembers() (ids []uint32, muxes []*transport.Mux) {
	ids, muxes, _, _ = c.placementView()
	return ids, muxes
}

// rowSet is a person-ascending row set: persons[i]'s pattern is locals[i].
type rowSet struct {
	persons []PersonID
	locals  []Pattern
}

// rowShare is one station's share of a person-ascending row set: the rows'
// ascending indexes (nil for every row) and the sum of their encoded sizes
// (wire.RowSize), which sizes the station's frame without a second read of
// the cells.
type rowShare struct {
	index []int32
	bytes int
}

// rows returns how many rows the share lists of a row set of n.
func (s rowShare) rows(n int) int {
	if s.index != nil {
		return len(s.index)
	}
	return n
}

// copyPlan is one Place call's grouping of its persons' copies: the kept
// rows, person-ascending, each person's Pick set as indexes into the alive
// stations, the content hash its intent records, and each target station's
// share of the rows.
type copyPlan struct {
	rows       rowSet
	width      int                 // copies per person: min(r, len(alive))
	targets    []uint32            // targets[i*width:(i+1)*width] index alive for row i
	hashes     []uint64            // placement.ContentHash of row i's pattern
	perStation map[uint32]rowShare // each target station's rows
}

// passRows is how many persons one goroutine of Place's pass takes at
// least: a batch below it, which every stream flush is, stays on the calling
// goroutine.
const passRows = 4096

// passWorkers returns how many goroutines Place's pass over n persons runs
// on: min(GOMAXPROCS, ⌈n/passRows⌉).
func passWorkers(n int) int {
	return min(runtime.GOMAXPROCS(0), (n+passRows-1)/passRows)
}

// passPart is one goroutine's range of the sorted persons, [lo, hi). Its
// kept rows are written from lo on, and bytes sums their encoded sizes per
// alive station.
type passPart struct {
	lo, hi, kept int
	bytes        []int
	err          error
}

// planCopies reads each person of persons (ascending, every pattern of the
// cluster's length) exactly once: it checks the int32 range, drops all-zero
// patterns, hashes the content, picks the targets (placement.PickIndexes
// over salts computed once per call) and sizes the row. The pass runs on
// workers goroutines, each over a contiguous range of persons writing at
// its own offsets, and the gaps the dropped rows leave are then closed, so
// the plan is the same for any worker count. persons becomes the plan's
// row set. A value an int32 cannot hold fails the plan with the lowest such
// person.
//
// Every station's row list is a window of one index array, 4 bytes per
// copy, filled by a counting pass over the targets.
func planCopies(persons []PersonID, patterns map[PersonID]Pattern, alive []uint32, r, workers int) (copyPlan, error) {
	n, w := len(persons), min(r, len(alive))
	pl := copyPlan{
		rows:    rowSet{persons: persons, locals: make([]Pattern, n)},
		width:   w,
		targets: make([]uint32, n*w),
		hashes:  make([]uint64, n),
	}
	salts := placement.AppendSalts(nil, alive)
	parts := make([]passPart, max(workers, 1))
	var wg sync.WaitGroup
	for j := range parts {
		pt := &parts[j]
		*pt = passPart{lo: j * n / len(parts), hi: (j + 1) * n / len(parts), bytes: make([]int, len(alive))}
		if j == len(parts)-1 {
			pl.pass(pt, patterns, salts, r)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl.pass(pt, patterns, salts, r)
		}()
	}
	wg.Wait()

	kept := 0
	stationBytes := make([]int, len(alive))
	for _, pt := range parts {
		if pt.err != nil {
			return copyPlan{}, pt.err
		}
		copy(persons[kept:], persons[pt.lo:pt.lo+pt.kept])
		copy(pl.rows.locals[kept:], pl.rows.locals[pt.lo:pt.lo+pt.kept])
		copy(pl.hashes[kept:], pl.hashes[pt.lo:pt.lo+pt.kept])
		copy(pl.targets[kept*w:], pl.targets[pt.lo*w:(pt.lo+pt.kept)*w])
		kept += pt.kept
		for k, b := range pt.bytes {
			stationBytes[k] += b
		}
	}
	pl.rows.persons, pl.rows.locals = persons[:kept], pl.rows.locals[:kept]
	pl.hashes, pl.targets = pl.hashes[:kept], pl.targets[:kept*w]

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
	for i := 0; i < kept; i++ {
		for _, k := range pl.targets[i*w : (i+1)*w] {
			index[fill[k]] = int32(i)
			fill[k]++
		}
	}
	pl.perStation = make(map[uint32]rowShare, len(alive))
	for k, sid := range alive {
		if lo, hi := starts[k], starts[k+1]; hi > lo {
			pl.perStation[sid] = rowShare{index: index[lo:hi:hi], bytes: stationBytes[k]}
		}
	}
	return pl, nil
}

// pass is one goroutine's share of planCopies's pass: persons pt.lo up to
// pt.hi, each pattern read once. It stops at the first pattern holding a
// value an int32 cannot hold.
func (pl *copyPlan) pass(pt *passPart, patterns map[PersonID]Pattern, salts []uint64, r int) {
	w, out := pl.width, pt.lo
	for i := pt.lo; i < pt.hi; i++ {
		p := pl.rows.persons[i]
		pat := patterns[p]
		if !pat.InRange() {
			pt.err = valueRange("place", p)
			return
		}
		// Stations drop all-zero patterns on ingest (no measurable activity
		// means no local pattern), and recording such a person as placed
		// would leave an intent no copy can ever satisfy, counted Lost by
		// every reconciliation forever.
		if pattern.AllZero(pat) {
			continue
		}
		pl.rows.persons[out], pl.rows.locals[out] = p, pat
		pl.hashes[out] = placement.ContentHash(pat)
		size := wire.RowSize(p, pat)
		for _, k := range placement.PickIndexes(p, salts, r, pl.targets[out*w:out*w:(out+1)*w]) {
			pt.bytes[k] += size
		}
		out++
	}
	pt.kept = out - pt.lo
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
// them, a routed search visits one replica per group and a replica lost
// mid-search is covered by the others. Consequently a person must be either
// placed or station-addressed, never both: Place records the person as
// managed, and reconciliation will move their copies to the replica group,
// clobbering any station-addressed copy under the same ID. Use Unplace to
// release a person back to manual management.
//
// A pattern of a foreign length or holding a value an int32 cannot hold
// fails the whole call before any exchange (ErrLengthMismatch,
// ErrValueRange): nothing is placed. All-zero patterns are skipped
// entirely, matching the stations' ingest rule (no measurable activity
// means no pattern).
//
// Partial failure is not fatal: the error joins every failed station
// exchange. A person who reached at least one station is recorded as placed
// (reconciliation restores the missing copies on the next membership change
// or Rebalance call); a person who reached none is rolled back to their
// earlier placement, if any.
func (c *Cluster) Place(ctx context.Context, patterns map[PersonID]Pattern, opts ...PlaceOption) error {
	_, err := c.place(ctx, patterns, opts...)
	return err
}

// place is Place that also returns the persons who reached no station,
// ascending — all of them when the call fails before any exchange — so the
// stream's flusher retries exactly those.
//
// The caller's map is walked once for its persons and their lengths, which
// reads no cell, and the persons are sorted once. One pass then reads each
// pattern once (planCopies), split across cores for a bulk load, into one
// person-ascending row set with flat arrays of targets and content hashes
// and each station's frame size. The intents are recorded under one table
// lock, and every target station receives one ingest exchange encoded
// straight from the row set through the station's index list, however many
// persons land on it.
func (c *Cluster) place(ctx context.Context, patterns map[PersonID]Pattern, opts ...PlaceOption) (unplaced []PersonID, err error) {
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
	persons, err := sortedPersons("place", c.length, patterns)
	var plan copyPlan
	if err == nil {
		plan, err = planCopies(persons, patterns, alive, cfg.replication, passWorkers(len(persons)))
	}
	if err == nil && len(alive) == 0 {
		err = ErrNoAliveStations
	}
	if err != nil {
		return allPersons(patterns), err
	}
	rows := plan.rows
	if len(rows.persons) == 0 {
		return nil, nil
	}
	// Record the intents BEFORE pushing any copy: a search starting between
	// the first ingest and the table update would otherwise sum the replica
	// reports (the person is not marked yet) and delete the person as
	// over-matched. The early mark is harmless the other way around —
	// max-dedup over zero or one reports ranks identically to summation.
	// Persons whose every target fails are rolled back below.
	tab := c.placementTable(len(rows.persons))
	before := tab.Len()
	prior := tab.Record(rows.persons, cfg.replication, plan.hashes)
	plan.hashes = nil // recorded: not held through the fan-out's frames

	others := before - len(prior) // persons placed by earlier calls only
	refactored := false           // a person's factor changes: its old copies may lie off the new set
	for _, e := range prior {
		refactored = refactored || e.Factor != cfg.replication
	}

	failed, err := c.ingest(ctx, "place on", rows, plan.perStation)
	switch {
	case err != nil || refactored:
		c.invalidateLayout()
	case clean || others == 0:
		// Every placed person now sits on its Pick set over alive: the
		// earlier ones because the layout was clean, or because there are
		// none.
		c.recordLayout(gen, alive)
	}

	for i, p := range rows.persons {
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
	return unplaced, err
}

// Unplace releases persons from automatic placement: their copies are
// evicted from every alive station and the placement table forgets them.
// Persons that were never placed are ignored. On a failed eviction the table
// keeps the affected persons (their copies may still exist, so the
// replica-aware dedup must stay in force) and the error is returned; calling
// Unplace again retries. A station that is down or removed while Unplace
// runs keeps its copy in its store (a WAL keeps it across restarts) and
// serves it again, unmanaged, after it rejoins: unplace before removing a
// station, or clear its WAL before re-adding it.
func (c *Cluster) Unplace(ctx context.Context, persons []PersonID) error {
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
	placed := make([]PersonID, 0, len(persons))
	for _, p := range persons {
		if t.Contains(p) {
			placed = append(placed, p)
		}
	}
	if len(placed) == 0 {
		return nil
	}
	alive, _ := c.aliveMembers()
	perStation := make(map[uint32][]PersonID, len(alive))
	for _, sid := range alive {
		perStation[sid] = placed
	}
	if _, err := c.evict(ctx, "unplace on", perStation); err != nil {
		// Some copies of the kept persons may be gone: their replicas differ.
		c.invalidateLayout()
		return err
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
// automatically; call it after transient failures or a lost link, or to
// inspect the placement's health.
//
// The pass is conservative: stale copies are only evicted when every missing
// copy was ingested successfully, so a partially failed pass never reduces a
// pattern's replica count, and only once every search that started before
// the copies landed has returned (moveFence): if ctx ends first, they stay.
// Persons with no reachable current copy are counted in HealReport.Lost,
// their copies are left alone, and they stay in the table for later retries.
// A pass that pulled from every alive station, lost nothing and failed no
// exchange leaves the layout clean: routed searches may then visit one
// replica per group (planRoute).
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
	keys := make([]PersonID, 0, len(intents))
	for p := range intents {
		keys = append(keys, p)
	}
	slices.Sort(keys)
	report := HealReport{Placed: len(intents)}

	if len(alive) == 0 {
		report.Lost = len(intents)
		return report, ErrNoAliveStations
	}

	// Pull the placed persons' copies from every alive station, folding
	// each reply as it lands. holders[p] are the stations holding p's
	// current copy, stale[p] those holding any other.
	holders := make(map[PersonID]map[uint32]bool, len(intents))
	stale := make(map[PersonID]map[uint32]bool)
	copies := make(map[PersonID]Pattern, len(intents))
	pulledAll := true
	pull := wire.Message{Kind: wire.KindDump, Payload: wire.EncodePersons(keys)}
	exchange(ctx, muxes, func(int) (wire.Message, error) { return pull, nil }, func(i int, r wire.Message, err error) {
		var persons []PersonID
		var locals []Pattern
		if err == nil {
			persons, locals, err = decodeDumpReply(r)
		}
		if err != nil {
			pulledAll = false
			return
		}
		for j, p := range persons {
			e, placed := intents[p]
			if !placed {
				continue
			}
			l := locals[j]
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
	})
	if err := ctx.Err(); err != nil {
		c.invalidateLayout()
		return report, fmt.Errorf("%w: %w", ErrCancelled, err)
	}

	// Plan the moves: every person's targets are recomputed from scratch, so
	// the same pass covers under-replication (a holder died), rebalancing (a
	// new station joined the replica set), stale copies and topping up after
	// the membership grew past a previously clamped factor.
	// The persons some target lacks form one person-ascending row set,
	// walked from the sorted keys, so every station's index list ascends.
	// Pick sets come as in Place: indexes into alive, salted once per pass.
	var rows rowSet
	adds := make(map[uint32]rowShare)
	dels := make(map[uint32][]PersonID)
	salts := placement.AppendSalts(nil, alive)
	var targets []uint32
	for _, p := range keys {
		pat, ok := copies[p]
		if !ok {
			report.Lost++
			continue
		}
		targets = placement.PickIndexes(p, salts, intents[p].Factor, targets[:0])
		row, size := -1, 0
		for _, k := range targets {
			if sid := alive[k]; !holders[p][sid] {
				if row < 0 {
					row, size = len(rows.persons), wire.RowSize(p, pat)
					rows.persons = append(rows.persons, p)
					rows.locals = append(rows.locals, pat)
				}
				share := adds[sid]
				share.index = append(share.index, int32(row))
				share.bytes += size
				adds[sid] = share
			}
		}
		for _, hs := range []map[uint32]bool{holders[p], stale[p]} {
			for sid := range hs {
				if !slices.ContainsFunc(targets, func(k uint32) bool { return alive[k] == sid }) {
					dels[sid] = append(dels[sid], p)
				}
			}
		}
	}

	// Copied/Removed count completed work, not the plan: a partially failed
	// pass must not report healing that never happened. Both phases fan out
	// concurrently, one grouped exchange per station.
	failedAdds, err := c.ingest(ctx, "re-replicate to", rows, adds)
	for sid, share := range adds {
		if !failedAdds[sid] {
			report.Copied += len(share.index)
		}
	}
	// A failed ingest (a stale plan) or fence keeps the extra copies.
	if err == nil && len(dels) > 0 {
		err = c.fenceMoves(ctx)
	}
	if err == nil {
		var failedDels map[uint32]bool
		failedDels, err = c.evict(ctx, "rebalance evict on", dels)
		for sid, ps := range dels {
			if !failedDels[sid] {
				report.Removed += len(ps)
			}
		}
	}
	if err == nil && pulledAll && report.Lost == 0 {
		c.recordLayout(gen, alive)
	} else {
		c.invalidateLayout()
	}
	return report, err
}

// moveFence is the grace period between a pass's copies and its evicts. A
// search registers, from pinEpoch to return, in the move generation current
// at its start; a pass advances it once its copies have landed and evicts
// once every earlier search, which may have read a new holder too early, has
// returned. New searches never wait: a hung search stalls only the evicts.
type moveFence struct {
	gen      uint64
	cur, old int           // searches registered in gen, and in earlier ones
	drained  chan struct{} // closed, for a waiting pass, once old is 0
}

// fenceMoves advances the move generation and awaits the earlier searches.
func (c *Cluster) fenceMoves(ctx context.Context) error {
	c.mu.Lock()
	c.moves.gen++
	c.moves.old, c.moves.cur = c.moves.old+c.moves.cur, 0
	if c.moves.old > 0 && c.moves.drained == nil {
		c.moves.drained = make(chan struct{})
	}
	drained := c.moves.drained // nil exactly when old is 0
	c.mu.Unlock()
	if drained == nil {
		return nil
	}
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("rebalance evict fenced: %w: %w", ErrCancelled, ctx.Err())
	}
}

// heal is the membership-change hook: a best-effort, bounded reconciliation.
// It always queues on healMu, even while nothing is placed, so it runs after
// any Place already in flight — a Place that computed its targets over the
// old membership and whose copies the change stranded. A pass over an empty
// table returns at once, so purely station-addressed clusters pay one lock.
// Errors are swallowed — reconciliation is idempotent and the next
// membership change (or an explicit Rebalance) retries.
func (c *Cluster) heal(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, healTimeout)
	defer cancel()
	_, _ = c.Rebalance(ctx)
}
