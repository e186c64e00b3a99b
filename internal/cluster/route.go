package cluster

import (
	"context"
	"sync"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

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
type summaryCache struct {
	mu      sync.Mutex
	entries map[uint32]*index.Summary // dimatch:guardedby mu
	gens    map[uint32]uint64         // dimatch:guardedby mu
}

// get returns the cached summary for a station (nil if absent) and the
// station's current generation. Callers that intend to fetch must read the
// generation BEFORE sending the request and pass it to put.
func (c *summaryCache) get(id uint32) (*index.Summary, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
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

// genSnapshot returns each station's current generation, in the given
// order. Region coordinators key their cached upward digest on it: any
// mutation that bumps a member's generation forces a rebuild.
func (c *summaryCache) genSnapshot(ids []uint32) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	gens := make([]uint64, len(ids))
	for i, id := range ids {
		gens[i] = c.gens[id]
	}
	return gens
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
// a copy — Bloom inserts are monotone, so the updated digest covers the
// post-ingest store without a wire refresh. Without a usable cached digest
// the slot is simply left invalidated.
func (c *summaryCache) noteIngest(id uint32, locals []pattern.Pattern) {
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
	updated := cur.Clone()
	for _, l := range locals {
		if l.Sum() == 0 {
			continue // stations drop all-zero patterns on ingest
		}
		if updated.Add(l) != nil {
			// Geometry mismatch (e.g. the placeholder digest of a station
			// that was empty): the digest cannot absorb the delta — drop it
			// and let the next routed search refetch.
			delete(c.entries, id)
			return
		}
	}
	c.entries[id] = updated
}

// state snapshots the cache's memory footprint for Cluster.RoutingState.
func (c *summaryCache) state() (entries int, digestBytes uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.entries {
		digestBytes += s.SizeBytes()
	}
	return len(c.entries), digestBytes
}

// planRoute is the routing step of a WBF search, one pass over the whole
// pinned membership: it probes each member's summary with the query batch
// and returns the epoch restricted to the members that must be visited,
// charging summary-refresh traffic to cost. A route delegate (a region
// coordinator) differs from a plain station only in where its digest comes
// from: it is fetched on every search and never cached, because a region's
// membership churns invisibly to this coordinator.
// The full epoch is returned — and nothing is pruned — whenever pruning
// would be unsound or pointless: a single-member cluster, probes over
// budget, or a plan that would exclude everything (stale summaries must
// never turn a search into a silent no-op, so an empty candidate set falls
// back to full fan-out).
//
// Members are kept (never pruned) individually when their summary cannot
// be fetched or when any query's probe admits them; an unselective probe
// admits everything. Pruning is therefore strictly conservative: a pruned
// member provably held no resident inside any query combination's ε band at
// the sampled positions, so it could only have contributed hash-collision
// noise, never a true match's report.
func (c *Cluster) planRoute(ctx context.Context, ep *epoch, delegate map[uint32]bool, cfg searchConfig, queries []core.Query, cost *CostReport) *epoch {
	if len(ep.ids) < 2 {
		return ep
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
			return ep // queries were validated already; be conservative
		}
		probes = append(probes, pr)
		selective = selective || pr.Selective()
	}
	if !selective {
		// Nothing can prune: skip the summary traffic entirely. Unselective
		// probes still advance the profiler's query clock (no bands).
		c.observeRoute(probes, nil)
		return ep
	}

	// Collect cached summaries and fetch the missing ones — every
	// delegate's included — concurrently. Generations are read before the
	// requests go out (see summaryCache).
	type slot struct {
		sum *index.Summary
		gen uint64
	}
	slots := make([]slot, len(ep.ids))
	var fetchIdx []int
	var fetchMuxes []*transport.Mux
	for i, id := range ep.ids {
		if !delegate[id] {
			slots[i].sum, slots[i].gen = c.summaries.get(id)
		}
		if slots[i].sum == nil {
			fetchIdx = append(fetchIdx, i)
			fetchMuxes = append(fetchMuxes, ep.muxes[i])
		}
	}
	req := wire.SummaryMessage()
	fetched := roundtripAll(ctx, fetchMuxes, req)
	if ctx.Err() != nil {
		return ep // cancelled mid-refresh: the round itself will surface it
	}
	for fi, r := range fetched {
		if r.err != nil {
			continue // unreachable: the member stays unpruned
		}
		_, sum, err := wire.DecodeSummaryReply(r.reply)
		if err != nil {
			continue // corruption must never prune
		}
		i := fetchIdx[fi]
		slots[i].sum = sum
		if !delegate[ep.ids[i]] {
			c.summaries.put(ep.ids[i], slots[i].gen, sum)
		}
		// Refresh traffic fills a cluster-level cache shared by every
		// search, so — like the per-epoch stats exchange — it is billed to
		// the dedicated summary counters, not the search's
		// dissemination/report totals.
		cost.SummaryRefreshes++
		cost.SummaryBytesDown += uint64(req.EncodedSize())
		cost.SummaryBytesUp += uint64(r.reply.EncodedSize())
	}

	// Feed the traffic profiler: the probes' bands, plus emptiness feedback
	// against every digest this pass can consult — a band no member digest
	// admits is (to within digest fp) empty cluster-wide, exactly the
	// traffic whose false admissions the adaptive solver targets. Unreachable
	// members contribute no digest; their residents are invisible to the
	// emptiness check, which only skews bit placement, never soundness.
	consulted := make([]*index.Summary, 0, len(slots))
	for _, sl := range slots {
		if sl.sum != nil {
			consulted = append(consulted, sl.sum)
		}
	}
	c.observeRoute(probes, consulted)

	// The inclusion pass: one flat scan of the members' digests. Every
	// Admits evaluation counts into SubtreeProbes, the planning-cost figure
	// the hierarchy test bounds.
	included := make([]int, 0, len(ep.ids))
	for i := range ep.ids {
		sum := slots[i].sum
		if sum == nil {
			included = append(included, i)
			continue
		}
		for _, pr := range probes {
			cost.SubtreeProbes++
			if sum.Admits(pr) {
				included = append(included, i)
				break
			}
		}
	}
	if len(included) == len(ep.ids) || len(included) == 0 {
		return ep
	}
	cost.StationsPruned = len(ep.ids) - len(included)
	sub := &epoch{version: ep.version, ids: make([]uint32, len(included)), muxes: make([]*transport.Mux, len(included))}
	for j, i := range included {
		sub.ids[j] = ep.ids[i]
		sub.muxes[j] = ep.muxes[i]
	}
	return sub
}

// RoutingState describes the coordinator's routing-state footprint: what
// this node holds in memory to plan searches. In a flat deployment the
// cached digests grow linearly with the station count; in a multi-tier one
// each coordinator holds digests for its own children only, which is the
// sublinear-state property TestTwoTierPlanningSublinearAt1024 pins.
type RoutingState struct {
	// Entries is the number of cached per-station digests and
	// CachedDigestBytes their total filter bytes.
	Entries           int
	CachedDigestBytes uint64
}

// TotalBytes returns the coordinator's whole routing-state footprint.
func (s RoutingState) TotalBytes() uint64 { return s.CachedDigestBytes }

// RoutingState snapshots the coordinator's current routing-state footprint.
func (c *Cluster) RoutingState() RoutingState {
	entries, digestBytes := c.summaries.state()
	return RoutingState{Entries: entries, CachedDigestBytes: digestBytes}
}
