package dimatch

import (
	"context"
	"sort"

	"dimatch/internal/bloom"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/wire"
)

// searchBF is the Bloom-filter baseline: same pipeline, no weights, so the
// center can only count how many stations reported each person.
func (c *Cluster) searchBF(ctx context.Context, ep *epoch, cfg searchConfig, queries []Query) (*Outcome, error) {
	params, err := c.bfParams(cfg, queries)
	if err != nil {
		return nil, err
	}
	enc, err := core.NewBFEncoder(params, c.length)
	if err != nil {
		return nil, err
	}
	for _, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			return nil, err
		}
	}
	filter := enc.Filter()

	counts := make(map[PersonID]int)
	replicated := c.replicatedPred()
	out := &Outcome{PerQuery: make(map[QueryID][]Result, len(queries))}
	msg := wire.EncodeBFQuery(wire.BFQuery{Filter: filter, Params: params, Length: c.length})
	var reportBytes uint64
	failed, err := c.fanOut(ctx, ep, msg, &out.Cost, func(_ int, reply wire.Message) error {
		batch, err := wire.DecodeBFMatches(reply)
		if err != nil {
			return err
		}
		reportBytes += uint64(reply.EncodedSize())
		for _, p := range batch.Persons {
			out.Cost.ReportsReceived++
			// A placed person's stations are replicas of one pattern, not
			// independent sightings: they count as a single report so the
			// station-count ranking is not inflated by the replication
			// factor.
			if replicated != nil && replicated(p) {
				if counts[p] == 0 {
					counts[p] = 1
				}
				continue
			}
			counts[p]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ranked := make([]Result, 0, len(counts))
	stations := int64(len(ep.ids))
	for p, n := range counts {
		ranked = append(ranked, Result{
			Person:      p,
			Numerator:   int64(n),
			Denominator: stations,
			Stations:    n,
		})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Numerator != ranked[j].Numerator {
			return ranked[i].Numerator > ranked[j].Numerator
		}
		return ranked[i].Person < ranked[j].Person
	})
	if cfg.topK > 0 && len(ranked) > cfg.topK {
		ranked = ranked[:cfg.topK]
	}
	for _, q := range queries {
		out.PerQuery[q.ID] = ranked
	}
	out.Cost.StationsFailed = len(failed)
	out.Cost.FilterBytes = filter.SizeBytes()
	out.Cost.CenterStorageBytes = filter.SizeBytes() + reportBytes
	return out, nil
}

// bfParams resolves the baseline's parameters. An unset Bits is sized for
// memory, as the paper prices a Bloom filter: bloom.OptimalParams over the
// estimated insertions at the target FP, not the WBF's sparse transmission
// sizing (core.SizedParams).
func (c *Cluster) bfParams(cfg searchConfig, queries []Query) (Params, error) {
	p, err := c.resolveParams(cfg, queries)
	if err != nil || cfg.params.Bits != 0 {
		return p, err
	}
	n, err := core.EstimateInsertions(p, c.length, queries)
	p.Bits, p.Hashes = bloom.OptimalParams(n, c.opts.TargetFP)
	return p, err
}

// searchNaive ships everything and matches centrally with the exact Eq. 2
// predicate. Precision is 1 by construction; the cost is the point.
func (c *Cluster) searchNaive(ctx context.Context, ep *epoch, cfg searchConfig, queries []Query) (*Outcome, error) {
	out := &Outcome{PerQuery: make(map[QueryID][]Result, len(queries))}
	globals, failed, err := c.pullGlobals(ctx, ep, nil, &out.Cost)
	if err != nil {
		return nil, err
	}

	eps := cfg.params.Epsilon
	for _, q := range queries {
		qGlobal, err := q.Global()
		if err != nil {
			return nil, err
		}
		type cand struct {
			person PersonID
			dist   int64
		}
		var cands []cand
		for p, g := range globals {
			d, err := pattern.MaxAbsDiff(qGlobal, g)
			if err != nil {
				continue // length mismatch: cannot match
			}
			if d > eps {
				continue
			}
			if cfg.minScore > 0 {
				if score := float64(eps-d+1) / float64(eps+1); score < cfg.minScore {
					continue
				}
			}
			cands = append(cands, cand{person: p, dist: d})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].person < cands[j].person
		})
		if cfg.topK > 0 && len(cands) > cfg.topK {
			cands = cands[:cfg.topK]
		}
		rs := make([]Result, len(cands))
		for i, cd := range cands {
			rs[i] = Result{
				Person:      cd.person,
				Numerator:   eps - cd.dist + 1,
				Denominator: eps + 1,
				Stations:    len(ep.ids),
			}
		}
		out.PerQuery[q.ID] = rs
	}
	out.Cost.StationsFailed = len(failed)
	out.Cost.ReportsReceived = len(globals)
	out.Cost.CenterStorageBytes = out.Cost.BytesUp
	return out, nil
}
