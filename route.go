package dimatch

import (
	"context"
	"sort"
	"sync"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// encodeSummary renders a routing digest as a summary reply.
func encodeSummary(s *index.Summary) wire.Message {
	return wire.EncodeSummaryReply(wire.SummaryReply{
		Length:   uint32(s.Length()),
		Seed:     s.Seed(),
		Bits:     s.Bits(),
		Hashes:   uint32(s.Hashes()),
		Inserted: s.Inserted(),
		Words:    s.Words(),
	})
}

// summaryCache is the coordinator's per-station routing-summary store. It
// is generation-guarded: every mutation that can change a station's store
// bumps the station's generation, and a summary fetched over the wire is
// only installed if the generation it was fetched under still stands. That
// closes the race where a summary request lands at a station just before an
// ingest applies, and its (now stale) reply would otherwise overwrite the
// invalidation — a stale summary that lags an ingest could prune a station
// holding the new resident, which is the one staleness that loses recall.
// A summary lagging an evict merely admits a station that reports nothing
// (a wasted probe), so eviction staleness is only a cost concern.
//
// A cached digest is mutated in place (handOver) under the write lock and
// probed (include) under the read lock, so a planner sees it from before an
// ingest's rows or after them, never half of them, and concurrent searches
// still scan the digests side by side.
//
// A digest handed over by an ingest into an empty station (handOver) stands
// in for the pull the first routed search would have made, and is sized for
// the one batch that filled the station. Until a routed search has read it
// (include), it is marked unread, and an ingest that reaches the slot drops
// it instead of adding to it: a small first batch, a stream flush or one
// chunk of a Place, would otherwise leave a digest sized for a few rows to
// absorb the whole station, set nearly every bit and admit every query.
// Dropped, the slot is pulled by the first routed search, sized for the
// station's residents then.
type summaryCache struct {
	mu    sync.RWMutex
	slots map[uint32]*summarySlot // dimatch:guardedby mu
}

// summarySlot is one station's cache entry: its digest (nil when none is
// cached), its generation, and whether the digest is a handed-over one no
// routed search has read. The cache's mu guards every field.
type summarySlot struct {
	digest *index.Summary
	gen    uint64
	unread bool
}

// slotLocked returns id's slot, made on first use; c.mu is held for writing.
func (c *summaryCache) slotLocked(id uint32) *summarySlot {
	sl := c.slots[id]
	if sl == nil {
		if c.slots == nil {
			c.slots = make(map[uint32]*summarySlot)
		}
		sl = &summarySlot{}
		c.slots[id] = sl
	}
	return sl
}

// get returns the cached summary for a station (nil if absent) and the
// station's current generation. Callers that intend to fetch must read the
// generation BEFORE sending the request and pass it to put.
func (c *summaryCache) get(id uint32) (*index.Summary, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if sl := c.slots[id]; sl != nil {
		return sl.digest, sl.gen
	}
	return nil, 0
}

// put installs a fetched summary if the station's generation is still the
// one the fetch was issued under; a summary outdated by a concurrent
// mutation is dropped.
func (c *summaryCache) put(id uint32, gen uint64, s *index.Summary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sl := c.slotLocked(id); sl.gen == gen {
		sl.digest, sl.unread = s, false
	}
}

// invalidate bumps the station's generation and drops its digest: the next
// routed search refetches (and until then the station is never pruned).
func (c *summaryCache) invalidate(id uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sl := c.slotLocked(id)
	sl.gen++
	sl.digest, sl.unread = nil, false
}

// handOver applies an acked ingest of locals[i] for each i of rows (all of
// locals when rows is nil: a grouped ingest reads its station's rows
// through the index list it was encoded from) to the station's slot, and
// bumps its generation, so any in-flight pre-ingest fetch is discarded.
//
// s is the digest the coordinator built while encoding the rows
// (Cluster.ingest), nil when the ack did not count exactly the rows sent.
// It is installed in place of the slot's digest when the generation read
// before the frame went out, gen, still stands; so a concurrent ingest,
// evict or pull of the same station either invalidates s or never sees it.
// s stays unread until a routed search reads it.
//
// Otherwise, when a digest is cached with matching geometry, the rows' cells
// are added to it in place — Bloom inserts are monotone, so the updated
// digest covers the post-ingest store without a wire refresh. Without a
// usable cached digest the slot is simply left invalidated.
func (c *summaryCache) handOver(id uint32, gen uint64, s *index.Summary, locals []Pattern, rows []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sl := c.slotLocked(id)
	stands := sl.gen == gen
	sl.gen++
	switch {
	case s != nil && stands:
		sl.digest, sl.unread = s, true
	case sl.unread:
		// A handed-over digest no routed search has read: sized for the
		// batch that filled the station, so it is dropped, not grown.
		sl.digest, sl.unread = nil, false
	case sl.digest != nil:
		sl.add(locals, rows)
	}
}

// add adds the rows locals[i], for each i of rows or every row when rows is
// nil, to the slot's digest. A row whose length is not the digest's (e.g.
// the placeholder digest of a station that was empty) means the digest
// cannot absorb the delta: it is dropped, untouched, and the next routed
// search refetches.
func (sl *summarySlot) add(locals []Pattern, rows []int32) {
	n := len(locals)
	if rows != nil {
		n = len(rows)
	}
	row := func(k int) Pattern {
		if rows != nil {
			return locals[rows[k]]
		}
		return locals[k]
	}
	for k := 0; k < n; k++ {
		if len(row(k)) != sl.digest.Length() {
			sl.digest = nil
			return
		}
	}
	for k := 0; k < n; k++ {
		_ = sl.digest.Add(row(k)) // every length was checked above
	}
}

// include is the routing inclusion pass over the digests one search read,
// sums[i] for station ids[i] at generation gens[i] (nil: none, never
// pruned): it sets admits[i] when sums[i] admits any of probes and returns
// how many Admits it evaluated. The scan holds the read lock, because
// handOver adds to cached digests in place. A handed-over digest the scan
// read then absorbs ingests as a pulled one does: its slot is marked read
// if its generation still stands.
func (c *summaryCache) include(ids []uint32, sums []*index.Summary, gens []uint64, probes []index.Probe, admits []bool) (evaluated int) {
	unread := false
	c.mu.RLock()
	for i, sum := range sums {
		if sum == nil {
			admits[i] = true
			continue
		}
		if sl := c.slots[ids[i]]; sl != nil && sl.unread {
			unread = true
		}
		for _, pr := range probes {
			evaluated++
			if sum.Admits(pr) {
				admits[i] = true
				break
			}
		}
	}
	c.mu.RUnlock()
	if unread {
		c.mu.Lock()
		for i, sum := range sums {
			if sl := c.slots[ids[i]]; sum != nil && sl != nil && sl.gen == gens[i] {
				sl.unread = false
			}
		}
		c.mu.Unlock()
	}
	return evaluated
}

// state snapshots the cache's memory footprint for Cluster.RoutingState.
func (c *summaryCache) state() (entries int, digestBytes uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, sl := range c.slots {
		if sl.digest != nil {
			entries++
			digestBytes += sl.digest.SizeBytes()
		}
	}
	return entries, digestBytes
}

// routePlan is planRoute's answer: the members a WBF search visits first
// and, when the group rule chose them, the candidate replica groups they
// stand for — each group's members, every one of which holds a copy of
// every person placed on the group.
type routePlan struct {
	ep     *epoch
	groups [][]uint32
}

// siblings returns the members a search must add after failures: for every
// candidate group none of whose visited members answered, its members
// neither visited nor failed. They hold copies of what the failed members
// were chosen to answer for. Nil without the group rule.
func (pl routePlan) siblings(visited, failed map[uint32]bool) map[uint32]bool {
	var more map[uint32]bool
	for _, g := range pl.groups {
		covered := false
		for _, id := range g {
			covered = covered || visited[id] && !failed[id]
		}
		if covered {
			continue
		}
		for _, id := range g {
			if !visited[id] && !failed[id] {
				if more == nil {
					more = make(map[uint32]bool)
				}
				more[id] = true
			}
		}
	}
	return more
}

// planRoute is the routing step of a WBF search, one pass over the whole
// pinned membership: it probes each member's summary with the query batch
// and returns the epoch restricted to the members that must be visited,
// charging summary-refresh traffic to cost. The full epoch is returned —
// and nothing is pruned — whenever pruning would be unsound or pointless: a
// single-member cluster, probes over budget, or a plan that would exclude
// everything (stale summaries must never turn a search into a silent no-op,
// so an empty candidate set falls back to full fan-out).
//
// Members are kept (never pruned) individually when their summary cannot
// be fetched or when any query's probe admits them; an unselective probe
// admits everything. Pruning is therefore strictly conservative: a pruned
// member provably held no resident inside any query combination's ε band at
// the sampled positions, so it could only have contributed hash-collision
// noise, never a true match's report.
//
// On a clean replicated layout the group rule then narrows the kept set to
// one member per candidate replica group (groupPlan).
func (c *Cluster) planRoute(ctx context.Context, ep *epoch, cfg searchConfig, queries []Query, cost *CostReport) routePlan {
	all := routePlan{ep: ep}
	if len(ep.ids) < 2 {
		return all
	}
	p := cfg.params
	samples := p.Samples
	if samples == 0 {
		samples = core.DefaultSamples
	}
	probes := make([]index.Probe, 0, len(queries))
	selective := false
	for _, q := range queries {
		pr, err := index.NewProbe(q, samples, p.Epsilon)
		if err != nil {
			return all // queries were validated already; be conservative
		}
		probes = append(probes, pr)
		selective = selective || pr.Selective()
	}
	if !selective {
		return all // nothing can prune: skip the summary traffic entirely
	}
	// Read before the digests: a heal records its layout after its pushes.
	layout, r, addressed, grouped := c.groupView(ep)

	// Collect cached summaries and fetch the missing ones concurrently.
	// Generations are read before the requests go out (see summaryCache).
	sums := make([]*index.Summary, len(ep.ids))
	gens := make([]uint64, len(ep.ids))
	var fetchIdx []int
	var fetchMuxes []*transport.Mux
	for i, id := range ep.ids {
		sums[i], gens[i] = c.summaries.get(id)
		if sums[i] == nil {
			fetchIdx = append(fetchIdx, i)
			fetchMuxes = append(fetchMuxes, ep.muxes[i])
		}
	}
	// Each digest is installed as it lands (put drops a stale one).
	req := wire.SummaryMessage()
	exchange(ctx, fetchMuxes, func(int) (wire.Message, error) { return req, nil }, func(fi int, reply wire.Message, err error) {
		if err != nil {
			return // unreachable: the member stays unpruned
		}
		sr, err := wire.DecodeSummaryReply(reply)
		if err != nil {
			return // corruption must never prune
		}
		sum, err := index.FromParts(int(sr.Length), sr.Seed, sr.Words, sr.Bits, int(sr.Hashes), sr.Inserted)
		if err != nil {
			return
		}
		i := fetchIdx[fi]
		sums[i] = sum
		c.summaries.put(ep.ids[i], gens[i], sum)
		// Refresh traffic fills a cluster-level cache shared by every
		// search, so it is billed to the dedicated summary counters, not
		// the search's dissemination/report totals.
		cost.SummaryRefreshes++
		cost.SummaryBytesDown += uint64(req.EncodedSize())
		cost.SummaryBytesUp += uint64(reply.EncodedSize())
	})
	if ctx.Err() != nil {
		return all // cancelled mid-refresh: the round itself will surface it
	}

	// The inclusion pass: one flat scan of the members' digests. Every
	// Admits evaluation counts into SubtreeProbes.
	admits := make([]bool, len(ep.ids))
	cost.SubtreeProbes += uint64(c.summaries.include(ep.ids, sums, gens, probes, admits))
	included := make([]int, 0, len(ep.ids))
	for i, ok := range admits {
		if ok {
			included = append(included, i)
		}
	}
	if len(included) == 0 {
		return all
	}
	var groups [][]uint32
	if grouped {
		if visit, gs := groupPlan(ep.ids, admits, addressed, layout, r); len(visit) > 0 {
			included, groups = visit, gs
		}
	}
	if len(included) == len(ep.ids) {
		return all
	}
	cost.StationsPruned = len(ep.ids) - len(included)
	sub := &epoch{version: ep.version, ids: make([]uint32, len(included)), muxes: make([]*transport.Mux, len(included))}
	for j, i := range included {
		sub.ids[j] = ep.ids[i]
		sub.muxes[j] = ep.muxes[i]
	}
	return routePlan{ep: sub, groups: groups}
}

// groupView snapshots what the group rule needs over the pinned epoch: the
// clean layout, the factor every placed person shares, and per member
// whether it is addressed. ok is false — plan without the rule — unless the
// layout is clean over ep (every station it names a member of ep whose link
// is up) and the factor uniform and at least 2.
func (c *Cluster) groupView(ep *epoch) (layout []uint32, r int, addressed []bool, ok bool) {
	c.mu.Lock()
	t, lay, held := c.placeTab, c.layout, c.layoutHeldLocked(ep)
	if held {
		addressed = make([]bool, len(ep.ids))
		for i, id := range ep.ids {
			addressed[i] = c.addressed[id]
		}
	}
	c.mu.Unlock()
	if !held || t == nil {
		return nil, 0, nil, false
	}
	if r, ok = t.Uniform(); !ok || r < 2 {
		return nil, 0, nil, false
	}
	return lay.ids, r, addressed, true
}

// groupPlan is the group rule. On a clean layout every placed person's
// copies lie on one replica group — a primary and its r−1 successors over
// the layout's ring, every one of them up — so a group can hold a match only
// if every member's digest admits (admits, parallel to ids, is the inclusion
// scan's verdict), and any one member answers for it. The plan visits every
// addressed member that admits (it may hold residents of its own), then
// walks the candidate groups in ring order and, for each not yet covered by
// a chosen member, chooses its last member, which also covers the next
// groups along the ring. An admitting member in no candidate group that is
// not addressed holds no possible match and is skipped. It returns the
// chosen indexes into ids, ascending, and the candidate groups' members.
func groupPlan(ids []uint32, admits, addressed []bool, layout []uint32, r int) (visit []int, groups [][]uint32) {
	pos := make([]int, len(layout)) // layout station → index into ids
	for j, id := range layout {
		pos[j] = sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	}
	chosen := make([]bool, len(ids))
	for i := range ids {
		chosen[i] = addressed[i] && admits[i]
	}
	n, w := len(layout), min(r, len(layout))
	starts := n
	if w == n {
		starts = 1 // every window is the whole ring
	}
	for g := 0; g < starts; g++ {
		candidate, covered, last := true, false, -1
		for j := 0; j < w && candidate; j++ {
			i := pos[(g+j)%n]
			candidate = admits[i]
			covered = covered || chosen[i]
			last = i
		}
		if !candidate || last < 0 {
			continue
		}
		members := make([]uint32, w)
		for j := range members {
			members[j] = ids[pos[(g+j)%n]]
		}
		groups = append(groups, members)
		if !covered {
			chosen[last] = true
		}
	}
	for i, ok := range chosen {
		if ok {
			visit = append(visit, i)
		}
	}
	return visit, groups
}

// RoutingState describes the coordinator's routing-state footprint: what
// this node holds in memory to plan searches. The cached digests grow
// linearly with the station count, one per station whose digest an ingest
// into it while empty handed over or a routed search has fetched. The
// benchmark reports its total as cluster.routing_state_bytes.
type RoutingState struct {
	// Entries is the number of cached per-station digests and
	// CachedDigestBytes their total filter bytes.
	Entries           int
	CachedDigestBytes uint64
}

// TotalBytes returns the coordinator's whole routing-state footprint.
func (s RoutingState) TotalBytes() uint64 { return s.CachedDigestBytes }

// RoutingState snapshots the coordinator's current routing-state footprint:
// how many per-station digests are cached and their bytes.
func (c *Cluster) RoutingState() RoutingState {
	entries, digestBytes := c.summaries.state()
	return RoutingState{Entries: entries, CachedDigestBytes: digestBytes}
}
