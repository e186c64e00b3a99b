package cluster

import (
	"context"
	"fmt"
	"sort"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/wire"
)

// batchQueries splits the query set into rounds of at most size queries.
// size <= 0 means one round carrying everything, clamped to the wire
// protocol's per-frame query limit so arbitrarily large searches still
// encode (they just take multiple rounds).
func batchQueries(queries []core.Query, size int) [][]core.Query {
	if size <= 0 || size > wire.MaxBatchQueries {
		size = wire.MaxBatchQueries
	}
	if size >= len(queries) {
		return [][]core.Query{queries}
	}
	out := make([][]core.Query, 0, (len(queries)+size-1)/size)
	for len(queries) > size {
		out = append(out, queries[:size])
		queries = queries[size:]
	}
	return append(out, queries)
}

// searchWBF is the paper's DI-matching pipeline end to end, executed as a
// sequence of rounds. Each round packs up to batchSize queries into one
// combined filter and one KindBatchQuery exchange per visited station;
// every round's reports merge into one aggregation.
func (c *Cluster) searchWBF(ctx context.Context, ep *epoch, cfg searchConfig, queries []core.Query) (*Outcome, error) {
	out := &Outcome{PerQuery: make(map[core.QueryID][]core.Result, len(queries))}
	agg := core.NewBatchAggregator()
	// Replica-aware aggregation: placed persons' replicas report the same
	// pattern, so the best report wins instead of the weights summing — and
	// a replica that fails mid-fan-out is covered by any survivor.
	agg.SetReplicated(c.replicatedPred())
	// The routing step: probe the members' summaries and restrict the query
	// fan-out to members that might answer — plain stations and region
	// coordinators in one pass.
	// Verification below still uses the full epoch — a candidate's locals can
	// live on stations that hold no within-band resident, and the verify
	// fetch must see them all.
	delegate := c.delegates(ctx, ep)
	routeEp := ep
	if cfg.routing != RoutingFull {
		routeEp = c.planRoute(ctx, ep, delegate, cfg, queries, &out.Cost)
	}
	// The hierarchical tier: region coordinators leave the batched rounds —
	// each receives the entire query set as one KindRouteQuery and answers
	// raw partial sums.
	stations, regions := routeEp.split(delegate)
	var reportBytes, filterBytes uint64
	failedStations := make(map[uint32]bool)
	for _, batch := range batchQueries(queries, cfg.batchSize) {
		if err := c.runWBFRound(ctx, stations, cfg, batch, agg, out, &reportBytes, &filterBytes, failedStations); err != nil {
			return nil, err
		}
	}
	maxHops, err := c.fanDelegates(ctx, regions, cfg, queries, agg, out, failedStations)
	if err != nil {
		return nil, err
	}
	out.Cost.TierHops = 1 + maxHops
	for _, q := range queries {
		if cfg.raw {
			out.PerQuery[q.ID] = rawResults(agg, q.ID)
		} else {
			out.PerQuery[q.ID] = rankWBF(cfg, agg, q.ID)
		}
	}
	out.Cost.StationsFailed += len(failedStations)
	out.Cost.FilterBytes = filterBytes
	out.Cost.CenterStorageBytes = filterBytes + reportBytes
	if cfg.verify && !cfg.raw {
		if err := c.verifyWBF(ctx, ep, cfg, queries, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// delegates returns the pinned epoch's route delegates: the members whose
// stats reply advertised wire.FlagRouteDelegate, nil when there are none. A
// plain station would fail its serve loop on a KindRouteQuery, so only peers
// that explicitly raised the flag are delegated to. A peer whose stats never
// arrived stays plain — it is sent batch frames, which every delegate also
// accepts (regions forward them to their stations), so misclassification
// degrades cost, never correctness.
func (c *Cluster) delegates(ctx context.Context, ep *epoch) map[uint32]bool {
	st, err := c.epochStats(ctx, ep)
	if err != nil {
		return nil
	}
	var set map[uint32]bool
	for _, s := range st.Stations {
		if s.Delegate {
			if set == nil {
				set = make(map[uint32]bool)
			}
			set[s.Station] = true
		}
	}
	return set
}

// split partitions the epoch into its plain stations and its route
// delegates, each a sub-epoch of the same version.
func (ep *epoch) split(delegate map[uint32]bool) (stations, regions *epoch) {
	regions = &epoch{version: ep.version}
	if len(delegate) == 0 {
		return ep, regions
	}
	stations = &epoch{version: ep.version}
	for i, id := range ep.ids {
		side := stations
		if delegate[id] {
			side = regions
		}
		side.ids = append(side.ids, id)
		side.muxes = append(side.muxes, ep.muxes[i])
	}
	return stations, regions
}

// rawResults returns every accumulated partial for one query, person
// ascending — the region's answer shape. No Algorithm 3 deletion, no topK,
// no score band: finalizing is the root's job, after every region's partials
// have merged.
func rawResults(agg *core.Aggregator, q core.QueryID) []core.Result {
	results := agg.Results(q)
	sort.Slice(results, func(i, j int) bool { return results[i].Person < results[j].Person })
	return results
}

// fanDelegates runs the hierarchical tier of one WBF search: every route
// delegate the routing step kept receives the whole query set as a single
// KindRouteQuery and answers its region's raw per-person partial sums, which
// merge into the shared aggregation exactly as AddFrom would one tier down
// (core's Merge). Which regions are asked is planRoute's decision; the
// exchange is billed to the search's Bytes/Messages totals and a delegate
// whose exchange fails is counted in failedStations exactly like a station.
func (c *Cluster) fanDelegates(ctx context.Context, regions *epoch, cfg searchConfig, queries []core.Query, agg *core.Aggregator, out *Outcome, failedStations map[uint32]bool) (maxHops int, err error) {
	if len(regions.ids) == 0 {
		return 0, nil
	}
	routeMsg, err := wire.EncodeRouteQuery(wire.RouteQuery{
		Queries:   queries,
		Params:    cfg.params,
		TargetFP:  cfg.targetFP,
		BatchSize: cfg.batchSize,
		Routing:   uint8(cfg.routing),
	})
	if err != nil {
		return 0, err
	}
	failed, err := c.fanOut(ctx, regions, routeMsg, &out.Cost, func(reply wire.Message) error {
		rr, err := wire.DecodeRouteReply(reply)
		if err != nil {
			return err
		}
		out.Cost.SubtreeProbes += rr.Probes
		out.Cost.StationsPruned += int(rr.Pruned)
		out.Cost.StationsFailed += int(rr.Failed)
		if int(rr.Hops) > maxHops {
			maxHops = int(rr.Hops)
		}
		for _, r := range rr.Results {
			out.Cost.ReportsReceived++
			agg.Merge(core.QueryID(r.Query), core.Result{
				Person:      core.PersonID(r.Person),
				Numerator:   r.Numerator,
				Denominator: r.Denominator,
				Stations:    int(r.Stations),
			})
		}
		return nil
	})
	for _, i := range failed {
		failedStations[regions.ids[i]] = true
	}
	return maxHops, err
}

// runWBFRound executes one round across the epoch's stations: it encodes the
// round's combined filter, sends it to every station in one KindBatchQuery
// frame each, and feeds every report into the shared aggregation. Stations
// that fail are recorded in failedStations — never fatal. An epoch with no
// stations (every member is a route delegate) builds and bills nothing.
func (c *Cluster) runWBFRound(ctx context.Context, ep *epoch, cfg searchConfig, batch []core.Query, agg *core.Aggregator, out *Outcome, reportBytes, filterBytes *uint64, failedStations map[uint32]bool) error {
	if len(ep.ids) == 0 {
		return nil
	}
	params, err := c.resolveParams(cfg, batch)
	if err != nil {
		return err
	}
	enc, err := core.NewEncoder(params, c.length)
	if err != nil {
		return err
	}
	ids := make([]core.QueryID, 0, len(batch))
	for _, q := range batch {
		if err := enc.AddQuery(q); err != nil {
			return err
		}
		ids = append(ids, q.ID)
	}
	combined := enc.Filter()
	batchMsg, err := wire.EncodeBatchQuery(wire.BatchQuery{Queries: ids, Filter: combined})
	if err != nil {
		return err
	}
	*filterBytes += combined.SizeBytes()

	failed, err := c.fanOut(ctx, ep, batchMsg, &out.Cost, func(reply wire.Message) error {
		*reportBytes += uint64(reply.EncodedSize())
		br, err := decodeRoundReply(reply, len(batch))
		if err != nil {
			return err
		}
		for _, rep := range br.Reports {
			out.Cost.ReportsReceived++
			if err := agg.AddFrom(combined.Weights(), rep); err != nil {
				return err
			}
		}
		return nil
	})
	for _, i := range failed {
		failedStations[ep.ids[i]] = true
	}
	if err != nil {
		return err
	}
	out.Cost.Batches++
	return nil
}

// decodeRoundReply decodes one station's answer to a round of the given
// number of queries, refusing one whose echo names another count: the peer
// matched a different batch, and its pointers index another weight table.
func decodeRoundReply(reply wire.Message, queries int) (wire.BatchReply, error) {
	br, err := wire.DecodeBatchReply(reply)
	if err == nil && int(br.Queries) != queries {
		err = fmt.Errorf("cluster: station %d answered %d queries, round has %d: %w", br.Station, br.Queries, queries, wire.ErrBatchMismatch)
	}
	return br, err
}

// verifyWBF runs the verification phase: pull every ranked candidate's
// local patterns, materialize their globals and drop candidates that fail
// the exact Eq. 2 check against their query.
func (c *Cluster) verifyWBF(ctx context.Context, ep *epoch, cfg searchConfig, queries []core.Query, out *Outcome) error {
	candidates := make(map[core.PersonID]bool)
	for _, results := range out.PerQuery {
		for _, r := range results {
			candidates[r.Person] = true
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	persons := make([]core.PersonID, 0, len(candidates))
	for p := range candidates {
		persons = append(persons, p)
	}
	before := out.Cost.BytesUp
	globals, failed, err := c.pullGlobals(ctx, ep, persons, &out.Cost)
	if err != nil {
		return err
	}
	if len(failed) > out.Cost.StationsFailed {
		out.Cost.StationsFailed = len(failed)
	}
	out.Cost.CenterStorageBytes += out.Cost.BytesUp - before

	eps := cfg.params.Epsilon
	for _, q := range queries {
		qGlobal, err := q.Global()
		if err != nil {
			return err
		}
		results := out.PerQuery[q.ID]
		kept := results[:0]
		for _, r := range results {
			if pattern.Similar(qGlobal, globals[r.Person], eps) {
				kept = append(kept, r)
			}
		}
		out.PerQuery[q.ID] = kept
	}
	return nil
}

// rankWBF finalizes one query's WBF candidates. With MinScore unset the
// paper's strict Algorithm 3 applies (delete weight sums above 1, rank
// descending). With MinScore set, ε-induced attribution error is tolerated
// symmetrically: candidates scoring within [MinScore, 2-MinScore] are kept
// and ranked by closeness to the perfect partition score of 1 — a complete
// match sums to exactly 1, a same-category match with jitter lands just
// beside it, and a cross-category accident overshoots far past the band.
func rankWBF(cfg searchConfig, agg *core.Aggregator, q core.QueryID) []core.Result {
	if cfg.minScore <= 0 {
		return agg.TopK(q, cfg.topK)
	}
	lo, hi := cfg.minScore, 2-cfg.minScore
	results := agg.Results(q)
	kept := results[:0]
	for _, r := range results {
		if s := r.Score(); s >= lo && s <= hi {
			kept = append(kept, r)
		}
	}
	results = kept
	dist := func(r core.Result) float64 {
		d := 1 - r.Score()
		if d < 0 {
			d = -d
		}
		return d
	}
	sort.Slice(results, func(i, j int) bool {
		di, dj := dist(results[i]), dist(results[j])
		if di != dj {
			return di < dj
		}
		return results[i].Person < results[j].Person
	})
	if cfg.topK > 0 && len(results) > cfg.topK {
		results = results[:cfg.topK]
	}
	return results
}
