package cluster

import (
	"context"
	"fmt"
	"sync"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// Region adapts one whole Cluster into a station-shaped peer: a region
// coordinator that owns a subtree of stations and answers a parent
// coordinator over a single link. To the parent it looks like one very large
// station — it aggregates stats, serves the union routing digest of its
// subtree, and accepts every station kind by forwarding it to its own
// members and merging the replies — plus the delegated search round: a
// KindRouteQuery runs the full WBF search path over the region's stations
// and answers raw per-person partial sums (KindRouteReply), leaving ranking,
// thresholding and verification to the root. That division is what makes a
// multi-tier topology's results provably identical to a flat fan-out
// (docs/ROUTING.md).
//
// The region advertises wire.FlagRouteDelegate in its stats replies, which
// is what tells a parent it may delegate. Because every station kind is also
// served, a parent that never saw the flag (its stats exchange failed) uses
// the region as an ordinary big station and still gets exact results.
type Region struct {
	id   uint32
	c    *Cluster
	link transport.Link
}

// NewRegion wraps a running cluster as a region coordinator answering on
// link. The caller keeps ownership of the cluster: Serve returning (even on
// a shutdown frame) does not shut the sub-cluster down.
func NewRegion(id uint32, c *Cluster, link transport.Link) *Region {
	return &Region{id: id, c: c, link: link}
}

// ServeRegion runs a region coordinator until the parent sends a shutdown
// frame or the link closes — the goroutine (or process) body of one region
// tier. The sub-cluster must already be started.
func ServeRegion(id uint32, c *Cluster, link transport.Link) error {
	return NewRegion(id, c, link).Serve()
}

// Serve processes parent messages until a shutdown message arrives or the
// link closes. Every reply echoes its request's wire ID, so the parent can
// run many searches over this link concurrently, exactly as with a station.
func (r *Region) Serve() error {
	// The serve loop outlives any one parent exchange and has no caller
	// context to inherit; downstream fan-outs are bounded by the parent's
	// patience (a parent that gives up simply counts the region failed).
	ctx := context.Background() //dimatch:allow ctxflow — serve loop root: a region process has no parent context
	for {
		msg, err := r.link.Recv()
		if err != nil {
			if err == transport.ErrClosed {
				return nil
			}
			return fmt.Errorf("region %d: %w", r.id, err)
		}
		var reply *wire.Message
		switch msg.Kind {
		case wire.KindRouteQuery:
			reply, err = r.handleRoute(ctx, msg)
		case wire.KindBatchQuery:
			reply, err = r.handleBatchForward(ctx, msg)
		case wire.KindBFQuery:
			reply, err = r.handleBFForward(ctx, msg)
		case wire.KindDump:
			reply, err = r.handleDumpForward(ctx, msg)
		case wire.KindIngest:
			reply, err = r.handleIngest(ctx, msg)
		case wire.KindEvict:
			reply, err = r.handleEvict(ctx, msg)
		case wire.KindStats:
			reply, err = r.handleStats(ctx)
		case wire.KindSummary:
			reply = r.handleSummary(ctx)
		case wire.KindShutdown:
			return nil
		default:
			err = fmt.Errorf("region %d: unexpected message %v", r.id, msg.Kind)
		}
		if err != nil {
			return err
		}
		if reply != nil {
			if err := r.link.Send(reply.WithRequest(msg.Request)); err != nil {
				return fmt.Errorf("region %d: %w", r.id, err)
			}
		}
	}
}

// handleRoute answers the delegated search round: the full WBF search path
// over this region's stations, in raw mode — no Algorithm 3 deletion, no
// topK, no score band, no verification. The region must not finalize: the
// root holds partials from the other regions, and deleting or truncating
// here would change the merged outcome.
func (r *Region) handleRoute(ctx context.Context, msg wire.Message) (*wire.Message, error) {
	rq, err := wire.DecodeRouteQuery(msg)
	if err != nil {
		return nil, fmt.Errorf("region %d: %w", r.id, err)
	}
	// Any ordinal but RoutingFull plans with the scan: it is conservative,
	// so an unknown mode costs nothing in results.
	mode := RoutingSummary
	if RoutingMode(rq.Routing) == RoutingFull {
		mode = RoutingFull
	}
	out, err := r.c.Search(ctx, rq.Queries,
		WithStrategy(StrategyWBF),
		withParams(rq.Params),
		WithTargetFP(rq.TargetFP),
		WithBatching(rq.BatchSize),
		WithRouting(mode),
		WithTopK(0),
		WithMinScore(0),
		WithVerify(false),
		withRaw(),
	)
	if err != nil {
		return nil, fmt.Errorf("region %d: %w", r.id, err)
	}
	rr := wire.RouteReply{
		Region: r.id,
		Probes: out.Cost.SubtreeProbes,
		Pruned: uint32(out.Cost.StationsPruned),
		Failed: uint32(out.Cost.StationsFailed),
		Hops:   uint32(out.Cost.TierHops),
	}
	if visited := r.c.Stations() - out.Cost.StationsPruned; visited > 0 {
		rr.Visited = uint32(visited)
	}
	for _, q := range rq.Queries {
		for _, res := range out.PerQuery[q.ID] {
			rr.Results = append(rr.Results, wire.RouteResult{
				Query:       q.ID,
				Person:      res.Person,
				Numerator:   res.Numerator,
				Denominator: res.Denominator,
				Stations:    uint32(res.Stations),
			})
		}
	}
	reply := wire.EncodeRouteReply(rr)
	return &reply, nil
}

// handleStats aggregates the subtree into one stats reply and advertises the
// delegate capability. The parent caches this per epoch exactly as it would
// a station's.
func (r *Region) handleStats(ctx context.Context) (*wire.Message, error) {
	st, err := r.c.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("region %d: %w", r.id, err)
	}
	reply := wire.EncodeStatsReply(wire.StatsReply{
		Station:      r.id,
		Residents:    uint64(st.TotalResidents()),
		StorageBytes: st.TotalStorageBytes(),
		Length:       uint32(r.c.PatternLength()),
		Flags:        wire.FlagRouteDelegate,
	})
	return &reply, nil
}

// handleSummary serves the subtree's routing digest — a single filter
// covering every resident of every member station, indistinguishable to the
// parent from one very large station's digest. On any failure the
// all-admitting saturated digest stands in, so a parent's pruning stays
// conservative: a region it cannot summarize is a region it visits.
func (r *Region) handleSummary(ctx context.Context) *wire.Message {
	reply := wire.EncodeSummaryReply(r.c.routingDigest(ctx), r.id)
	return &reply
}

// handleBatchForward forwards a batch round to every member
// station and concatenates their reports. Report boundaries are preserved —
// each report is one (person, weights) verdict from one station — so the
// parent's aggregation sees exactly what it would see with the stations as
// direct members.
func (r *Region) handleBatchForward(ctx context.Context, msg wire.Message) (*wire.Message, error) {
	bq, err := wire.DecodeBatchQuery(msg)
	if err != nil {
		return nil, fmt.Errorf("region %d: %w", r.id, err)
	}
	var reports []core.Report
	if err := r.forward(ctx, msg, func(reply wire.Message) error {
		br, err := wire.DecodeBatchReply(reply)
		if err != nil {
			return err
		}
		reports = append(reports, br.Reports...)
		return nil
	}); err != nil {
		return nil, err
	}
	reply := wire.EncodeBatchReply(wire.BatchReply{
		Station: r.id,
		Queries: uint32(len(bq.Queries)),
		Reports: reports,
	})
	return &reply, nil
}

// handleBFForward forwards the BF baseline frame. Persons the region itself
// placed (full replicas of one pattern) are reported once, so the parent's
// station-count ranking is not inflated by region-internal replication.
func (r *Region) handleBFForward(ctx context.Context, msg wire.Message) (*wire.Message, error) {
	replicated := r.c.replicatedPred()
	seen := make(map[core.PersonID]bool)
	var persons []core.PersonID
	if err := r.forward(ctx, msg, func(reply wire.Message) error {
		bm, err := wire.DecodeBFMatches(reply)
		if err != nil {
			return err
		}
		for _, p := range bm.Persons {
			if replicated != nil && replicated(p) {
				if seen[p] {
					continue
				}
				seen[p] = true
			}
			persons = append(persons, p)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	reply := wire.EncodeBFMatches(wire.BFMatches{Station: r.id, Persons: persons})
	return &reply, nil
}

// handleDumpForward forwards the raw-pattern pull — the parent's naive
// shipment, verification fetch or re-replication pull. Region-placed persons
// ship a single copy (their replicas are identical; the parent would
// otherwise double their global); station-addressed persons keep every
// complementary piece.
func (r *Region) handleDumpForward(ctx context.Context, msg wire.Message) (*wire.Message, error) {
	req, err := wire.DecodeDump(msg)
	if err != nil {
		return nil, fmt.Errorf("region %d: %w", r.id, err)
	}
	out := wire.DumpReply{Station: r.id}
	if _, _, err := r.c.pullPatterns(ctx, r.c.currentEpoch(), req.Persons, nil, func(p core.PersonID, l pattern.Pattern) {
		out.Persons = append(out.Persons, p)
		out.Locals = append(out.Locals, l)
	}); err != nil {
		return nil, fmt.Errorf("region %d: %w", r.id, err)
	}
	reply, err := wire.EncodeDumpReply(out)
	if err != nil {
		return nil, fmt.Errorf("region %d: %w", r.id, err)
	}
	return &reply, nil
}

// handleIngest places the parent's patterns inside the region. The parent
// addresses the region as one station; internally the region re-places each
// pattern on a single member (replication across regions is the parent's
// job — a copy per tier would multiply storage without surviving any
// additional failure the parent's cross-region replicas do not already
// cover).
func (r *Region) handleIngest(ctx context.Context, msg wire.Message) (*wire.Message, error) {
	in, err := wire.DecodeIngest(msg)
	if err != nil {
		return nil, fmt.Errorf("region %d: %w", r.id, err)
	}
	patterns := make(map[core.PersonID]pattern.Pattern, len(in.Persons))
	applied := 0
	for i, p := range in.Persons {
		if in.Locals[i].Sum() == 0 {
			continue
		}
		patterns[p] = in.Locals[i]
		applied++
	}
	if err := r.c.Place(ctx, patterns, WithReplication(1)); err != nil {
		return nil, fmt.Errorf("region %d: %w", r.id, err)
	}
	reply := wire.EncodeAck(wire.Ack{Station: r.id, Applied: uint64(applied)})
	return &reply, nil
}

// handleEvict releases the parent's persons from the region: placed copies
// through Unplace (evicted everywhere, intent dropped), station-addressed
// residue by a direct evict fan-out. Per-station failures are best-effort —
// the stations that answered have evicted, unknown persons are ignored by
// construction, and the parent invalidates its digest of this region either
// way — so a single dead member does not fail the exchange.
func (r *Region) handleEvict(ctx context.Context, msg wire.Message) (*wire.Message, error) {
	ev, err := wire.DecodeEvict(msg)
	if err != nil {
		return nil, fmt.Errorf("region %d: %w", r.id, err)
	}
	_ = r.c.Unplace(ctx, ev.Persons)
	ids, _ := r.c.aliveMembers()
	perStation := make(map[uint32][]core.PersonID, len(ids))
	for _, sid := range ids {
		perStation[sid] = ev.Persons
	}
	_, _ = r.c.evictGrouped(ctx, perStation, "region evict on")
	reply := wire.EncodeAck(wire.Ack{Station: r.id, Applied: uint64(len(ev.Persons))})
	return &reply, nil
}

// forward fans one frame to every member station and feeds each reply to
// handle, in ascending station order. A member that fails the exchange is
// skipped — the parent's answer covers the stations that answered, exactly
// as its own fan-out would — but a reply that fails to decode is fatal: it
// means protocol corruption, not a dead peer.
func (r *Region) forward(ctx context.Context, msg wire.Message, handle func(reply wire.Message) error) error {
	fwd := wire.Message{Kind: msg.Kind, Payload: msg.Payload}
	if _, err := r.c.fanOut(ctx, r.c.currentEpoch(), fwd, nil, handle); err != nil {
		return fmt.Errorf("region %d: %w", r.id, err)
	}
	return nil
}

// upwardDigest caches the one subtree digest a region coordinator serves to
// its parent, together with the churn key it was built under. A single slot
// suffices: the digest always describes the whole current subtree.
type upwardDigest struct {
	mu  sync.Mutex
	key []uint64       // dimatch:guardedby mu
	sum *index.Summary // dimatch:guardedby mu
}

// get returns the cached digest if it was built under exactly this key.
func (u *upwardDigest) get(key []uint64) *index.Summary {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.sum == nil || len(u.key) != len(key) {
		return nil
	}
	for i := range key {
		if u.key[i] != key[i] {
			return nil
		}
	}
	return u.sum
}

// put installs a freshly built digest under its churn key.
func (u *upwardDigest) put(key []uint64, sum *index.Summary) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.key, u.sum = key, sum
}

// routingDigest returns the digest this coordinator serves upward as its
// subtree summary: a single filter built over every member's raw resident
// patterns, sized for the subtree's aggregate load — to the parent it is
// indistinguishable from the digest of one very large station. It is NOT the
// bitwise-OR union of the members' own digests: a small filter carries only
// as much information as it has bits, so expanding and OR-ing many member
// digests keeps each member's fill density and saturates at any aggregate
// scale (the in-coordinator Bloofi tree tolerates exactly this because
// sharper nodes below every union recover the precision — a region's digest
// has no sharper node at the parent, so it must be sharp itself). The raw
// patterns are pulled with one whole-store dump fan-out per churn: the
// result is cached under a key of the membership epoch and every member's
// summary generation, so steady state serves from memory and any mutation —
// ingest, evict, join, leave, kill — forces a rebuild. A mutation landing
// mid-rebuild bumps a generation read into the key before the dump went out,
// so the stale digest is stored under a key that no longer matches.
//
// The fallback is the saturated (all-ones) digest, which admits every probe:
// a subtree that cannot be dumped exactly — an unreachable member, a
// foreign pattern length — must never be pruned by the tier above. An empty
// region returns an empty digest that admits nothing, which is exactly
// right.
func (c *Cluster) routingDigest(ctx context.Context) *index.Summary {
	saturated := func() *index.Summary {
		return index.Saturated(c.length, index.DefaultSeed)
	}
	ep := c.currentEpoch()
	gens := c.summaries.genSnapshot(ep.ids)
	key := make([]uint64, 0, 2*len(ep.ids)+1)
	key = append(key, ep.version)
	for i, id := range ep.ids {
		key = append(key, uint64(id), gens[i])
	}
	if sum := c.upward.get(key); sum != nil {
		return sum
	}

	// Pull every member's whole store. Region-placed replicas collapse to
	// one copy — their cells are identical, and counting them once keeps the
	// filter sized for distinct residents.
	var locals []pattern.Pattern
	failed, foreign, err := c.pullPatterns(ctx, ep, nil, nil, func(_ core.PersonID, l pattern.Pattern) {
		if l.Sum() != 0 {
			locals = append(locals, l)
		}
	})
	if err != nil || len(failed) > 0 || foreign {
		// A member that cannot be dumped — or one holding patterns of a
		// foreign length — makes the subtree unsummarizable: saturate rather
		// than under-report.
		return saturated()
	}
	sum, err := index.Build(c.length, locals)
	if err != nil {
		return saturated()
	}
	c.upward.put(key, sum)
	return sum
}
