package main

import (
	"fmt"
	"math"
	"sort"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/index/tree"
	"dimatch/internal/wire"
)

// replayer walks one search by hand through the layers' public functions,
// the same calls in the same order Cluster.Search and the station loop
// make, with a span around each. It works on the benchmark's copy of the
// station data, so its answer equals the real search's only if the copy,
// the plan and every codec agree with the cluster.
type replayer struct {
	w       *workload
	ds      *dataset
	digests []*index.Summary // parallel to ds.stationIDs
	tree    *tree.Tree
	qframe  []byte
	rframe  []byte

	residents int64 // residents walked by MatchResidents, over all replayed searches
	matchNs   int64 // and the time that took
}

func newReplayer(w *workload, ds *dataset) (*replayer, error) {
	r := &replayer{w: w, ds: ds, tree: tree.New(tree.Options{})}
	for _, id := range ds.stationIDs {
		sum, err := index.Build(ds.length, ds.copies[id].locals)
		if err != nil {
			return nil, fmt.Errorf("digest of station %d: %w", id, err)
		}
		if err := r.tree.Add(id, sum); err != nil {
			return nil, err
		}
		r.digests = append(r.digests, sum)
	}
	return r, nil
}

// run replays one search as query number query of the trace and returns its
// answer.
func (r *replayer) run(tr *tracer, query int, queries []core.Query) (map[core.QueryID][]core.Result, error) {
	root := tr.begin("replay", query, -1)
	defer tr.end(root)
	base := r.w.opts.Params

	s := tr.begin("core.encode", query, root)
	params := base
	if params.Bits == 0 {
		var err error
		if params, err = core.SizedParams(base, r.ds.length, queries, r.w.opts.TargetFP); err != nil {
			return nil, err
		}
	}
	enc, err := core.NewEncoder(params, r.ds.length)
	if err != nil {
		return nil, err
	}
	ids := make([]core.QueryID, 0, len(queries))
	for _, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			return nil, err
		}
		ids = append(ids, q.ID)
	}
	filter := enc.Filter()
	tr.end(s)

	s = tr.begin("index.probe_build", query, root)
	probes := make([]index.Probe, 0, len(queries))
	for _, q := range queries {
		pr, err := index.NewProbe(q, base.Samples, base.Epsilon)
		if err != nil {
			return nil, err
		}
		probes = append(probes, pr)
	}
	tr.end(s)

	s = tr.begin("index.plan", query, root)
	var admitted []int
	for i, d := range r.digests {
		for _, pr := range probes {
			if d.Admits(pr) {
				admitted = append(admitted, i)
				break
			}
		}
	}
	tr.end(s)
	if len(admitted) == 0 { // an all-pruned plan falls back to full fan-out
		for i := range r.digests {
			admitted = append(admitted, i)
		}
	}

	// The tree planner is not on the default path; it is timed over the
	// same digests so the two planners can be compared layer against layer.
	s = tr.begin("tree.plan", query, root)
	r.tree.Route(probes)
	tr.end(s)

	s = tr.begin("wire.query_encode", query, root)
	msg, err := wire.EncodeBatchQuery(wire.BatchQuery{Queries: ids, Filter: filter})
	if err != nil {
		return nil, err
	}
	r.qframe = msg.AppendFrame(r.qframe[:0])
	tr.end(s)

	agg := core.NewBatchAggregator()
	if r.ds.city == nil {
		// Every sparse person is placed, so replica reports are deduplicated.
		agg.SetReplicated(func(core.PersonID) bool { return true })
	}
	for _, i := range admitted {
		id := r.ds.stationIDs[i]
		res := r.ds.copies[id]
		station := tr.begin("replay.station", query, root)

		s = tr.begin("wire.query_decode", query, station)
		in, err := wire.Decode(r.qframe)
		if err != nil {
			return nil, err
		}
		bq, err := wire.DecodeBatchQuery(in)
		if err != nil {
			return nil, err
		}
		tr.end(s)

		s = tr.begin("core.match", query, station)
		reports, err := core.MatchResidents(bq.Filter, res.persons, res.locals, 0)
		if err != nil {
			return nil, err
		}
		tr.end(s)
		r.residents += int64(len(res.persons))
		r.matchNs += tr.spans[s].End - tr.spans[s].Start

		s = tr.begin("wire.reply_encode", query, station)
		reply := wire.EncodeBatchReply(wire.BatchReply{Station: id, Queries: uint32(len(bq.Queries)), Reports: reports})
		r.rframe = reply.AppendFrame(r.rframe[:0])
		tr.end(s)

		s = tr.begin("wire.reply_decode", query, station)
		back, err := wire.Decode(r.rframe)
		if err != nil {
			return nil, err
		}
		br, err := wire.DecodeBatchReply(back)
		if err != nil {
			return nil, err
		}
		tr.end(s)

		s = tr.begin("core.aggregate", query, station)
		for _, rep := range br.Reports {
			if err := agg.AddFrom(filter.Weights(), rep); err != nil {
				return nil, err
			}
		}
		tr.end(s)
		tr.end(station)
	}

	s = tr.begin("core.rank", query, root)
	out := make(map[core.QueryID][]core.Result, len(queries))
	for _, q := range queries {
		out[q.ID] = rank(agg, q.ID, r.w.opts.MinScore, r.w.opts.TopK)
	}
	tr.end(s)
	return out, nil
}

// rank finalizes one query the way the coordinator does: strict Algorithm 3
// without a MinScore, else the band [MinScore, 2-MinScore] around the
// perfect score of 1, ranked by closeness to it.
func rank(agg *core.Aggregator, q core.QueryID, minScore float64, topK int) []core.Result {
	if minScore <= 0 {
		return agg.TopK(q, topK)
	}
	var kept []core.Result
	for _, res := range agg.Results(q) {
		if s := res.Score(); s >= minScore && s <= 2-minScore {
			kept = append(kept, res)
		}
	}
	dist := func(res core.Result) float64 { return math.Abs(1 - res.Score()) }
	sort.Slice(kept, func(i, j int) bool {
		if di, dj := dist(kept[i]), dist(kept[j]); di != dj {
			return di < dj
		}
		return kept[i].Person < kept[j].Person
	})
	if topK > 0 && len(kept) > topK {
		kept = kept[:topK]
	}
	return kept
}

// sameAnswer reports whether two searches ranked the same results for every
// one of the queries.
func sameAnswer(queries []core.Query, a, b map[core.QueryID][]core.Result) bool {
	for _, q := range queries {
		ra, rb := a[q.ID], b[q.ID]
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
	}
	return true
}
