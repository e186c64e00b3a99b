package dimatch

import (
	"context"
	"sort"
	"sync"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
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
// A cached digest is mutated in place (noteIngest) under the write lock and
// probed (planRoute's inclusion pass) under the read lock, so a planner sees
// it from before an ingest's rows or after them, never half of them, and
// concurrent searches still scan the digests side by side.
type summaryCache struct {
	mu      sync.RWMutex
	entries map[uint32]*index.Summary // dimatch:guardedby mu
	gens    map[uint32]uint64         // dimatch:guardedby mu
}

// get returns the cached summary for a station (nil if absent) and the
// station's current generation. Callers that intend to fetch must read the
// generation BEFORE sending the request and pass it to put.
func (c *summaryCache) get(id uint32) (*index.Summary, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.entries[id], c.gens[id]
}

// put installs a fetched summary if the station's generation is still the
// one the fetch was issued under; a summary outdated by a concurrent
// mutation is dropped.
func (c *summaryCache) put(id uint32, gen uint64, s *index.Summary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gens[id] != gen {
		return
	}
	if c.entries == nil {
		c.entries = make(map[uint32]*index.Summary)
	}
	c.entries[id] = s
}

// invalidate bumps the station's generation and drops its digest: the next
// routed search refetches (and until then the station is never pruned).
func (c *summaryCache) invalidate(id uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gens == nil {
		c.gens = make(map[uint32]uint64)
	}
	c.gens[id]++
	delete(c.entries, id)
}

// noteIngest applies an ingest to the cached digest: the generation bumps
// (so any in-flight pre-ingest fetch is discarded) and, when a digest is
// cached with matching geometry, the ingested patterns' cells are added to
// it in place — Bloom inserts are monotone, so the updated digest covers the
// post-ingest store without a wire refresh. Without a usable cached digest
// the slot is simply left invalidated. The ingest's patterns are locals[i]
// for each i of index, or all of locals when index is nil: a grouped ingest
// reads its station's rows through the index list it was encoded from.
func (c *summaryCache) noteIngest(id uint32, locals []Pattern, index []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gens == nil {
		c.gens = make(map[uint32]uint64)
	}
	c.gens[id]++
	cur := c.entries[id]
	if cur == nil {
		return
	}
	n := len(locals)
	if index != nil {
		n = len(index)
	}
	row := func(k int) Pattern {
		if index != nil {
			return locals[index[k]]
		}
		return locals[k]
	}
	// Stations drop all-zero patterns on ingest, so the digest skips them.
	for k := 0; k < n; k++ {
		if l := row(k); len(l) != cur.Length() && !pattern.AllZero(l) {
			// Geometry mismatch (e.g. the placeholder digest of a station
			// that was empty): the digest cannot absorb the delta — drop it,
			// untouched, and let the next routed search refetch.
			delete(c.entries, id)
			return
		}
	}
	for k := 0; k < n; k++ {
		if l := row(k); !pattern.AllZero(l) {
			_ = cur.Add(l) // every length was checked above
		}
	}
}

// state snapshots the cache's memory footprint for Cluster.RoutingState.
func (c *summaryCache) state() (entries int, digestBytes uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, s := range c.entries {
		digestBytes += s.SizeBytes()
	}
	return len(c.entries), digestBytes
}

// routePlan is planRoute's answer: the members a WBF search visits first
// and, when the group rule chose them, the candidate replica groups they
// stand for — each group's alive members, every one of which holds a copy
// of every person placed on the group.
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

	// Collect cached summaries and fetch the missing ones concurrently.
	// Generations are read before the requests go out (see summaryCache).
	type slot struct {
		sum *index.Summary
		gen uint64
	}
	slots := make([]slot, len(ep.ids))
	var fetchIdx []int
	var fetchMuxes []*transport.Mux
	for i, id := range ep.ids {
		slots[i].sum, slots[i].gen = c.summaries.get(id)
		if slots[i].sum == nil {
			fetchIdx = append(fetchIdx, i)
			fetchMuxes = append(fetchMuxes, ep.muxes[i])
		}
	}
	req := wire.SummaryMessage()
	fetched := roundtripAll(ctx, fetchMuxes, req)
	if ctx.Err() != nil {
		return all // cancelled mid-refresh: the round itself will surface it
	}
	for fi, r := range fetched {
		if r.err != nil {
			continue // unreachable: the member stays unpruned
		}
		sr, err := wire.DecodeSummaryReply(r.reply)
		if err != nil {
			continue // corruption must never prune
		}
		sum, err := index.FromParts(int(sr.Length), sr.Seed, sr.Words, sr.Bits, int(sr.Hashes), sr.Inserted)
		if err != nil {
			continue
		}
		i := fetchIdx[fi]
		slots[i].sum = sum
		c.summaries.put(ep.ids[i], slots[i].gen, sum)
		// Refresh traffic fills a cluster-level cache shared by every
		// search, so it is billed to the dedicated summary counters, not
		// the search's dissemination/report totals.
		cost.SummaryRefreshes++
		cost.SummaryBytesDown += uint64(req.EncodedSize())
		cost.SummaryBytesUp += uint64(r.reply.EncodedSize())
	}

	// The inclusion pass: one flat scan of the members' digests, under the
	// cache's read lock because noteIngest adds to cached digests in place.
	// Every Admits evaluation counts into SubtreeProbes.
	admits := make([]bool, len(ep.ids))
	included := make([]int, 0, len(ep.ids))
	c.summaries.mu.RLock()
	for i := range ep.ids {
		sum := slots[i].sum
		if sum == nil {
			admits[i] = true
			included = append(included, i)
			continue
		}
		for _, pr := range probes {
			cost.SubtreeProbes++
			if sum.Admits(pr) {
				admits[i] = true
				included = append(included, i)
				break
			}
		}
	}
	c.summaries.mu.RUnlock()
	if len(included) == 0 {
		return all
	}
	var groups [][]uint32
	if layout, r, addressed, alive, ok := c.groupView(ep); ok {
		if visit, gs := groupPlan(ep.ids, admits, addressed, alive, layout, r); len(visit) > 0 {
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
// whether it is addressed and alive. ok is false — plan without the rule —
// unless the layout is clean, the factor uniform and at least 2, and every
// layout station a member of ep.
func (c *Cluster) groupView(ep *epoch) (layout []uint32, r int, addressed, alive []bool, ok bool) {
	c.mu.Lock()
	t, lay := c.placeTab, c.layout
	if lay.ok {
		addressed = make([]bool, len(ep.ids))
		alive = make([]bool, len(ep.ids))
		for i, id := range ep.ids {
			addressed[i] = c.addressed[id]
			alive[i] = !c.dead[id]
		}
	}
	c.mu.Unlock()
	if !lay.ok || t == nil {
		return nil, 0, nil, nil, false
	}
	if r, ok = t.Uniform(); !ok || r < 2 {
		return nil, 0, nil, nil, false
	}
	for _, id := range lay.ids {
		if ep.find(id) < 0 {
			return nil, 0, nil, nil, false
		}
	}
	return lay.ids, r, addressed, alive, true
}

// groupPlan is the group rule. On a clean layout every placed person's
// copies lie on one replica group — a primary and its r−1 successors over
// the layout's ring — so a group can hold a match only if every alive
// member's digest admits (admits, parallel to ids, is the inclusion scan's
// verdict), and any one alive member answers for it. The plan visits every
// addressed member that admits (it may hold residents of its own), then
// walks the candidate groups in ring order and, for each not yet covered by
// a chosen member, chooses its last alive member, which also covers the
// next groups along the ring. An admitting member in no candidate group
// that is not addressed holds no possible match and is skipped. It returns
// the chosen indexes into ids, ascending, and the candidate groups' alive
// members.
func groupPlan(ids []uint32, admits, addressed, alive []bool, layout []uint32, r int) (visit []int, groups [][]uint32) {
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
			if i := pos[(g+j)%n]; alive[i] {
				candidate = admits[i]
				covered = covered || chosen[i]
				last = i
			}
		}
		if !candidate || last < 0 {
			continue
		}
		members := make([]uint32, 0, w)
		for j := 0; j < w; j++ {
			if i := pos[(g+j)%n]; alive[i] {
				members = append(members, ids[i])
			}
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
// linearly with the station count, one per station whose digest a routed
// search has fetched. The benchmark reports its total as
// cluster.routing_state_bytes.
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
