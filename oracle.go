package dimatch

import (
	"sort"

	"dimatch/internal/pattern"
)

// Oracle computes the exact IPM answer (Eq. 2 over materialized globals)
// directly from the raw station data, bypassing the distributed machinery.
// It is the ground-truth reference the naive strategy must equal and the
// recall baseline for the filter strategies.
func Oracle(stationData map[uint32]map[PersonID]Pattern, query Query, eps int64, topK int) ([]PersonID, error) {
	if err := query.Validate(); err != nil {
		return nil, err
	}
	qGlobal, err := query.Global()
	if err != nil {
		return nil, err
	}
	globals := make(map[PersonID]Pattern)
	for _, locals := range stationData {
		for p, l := range locals {
			g := globals[p]
			if g == nil {
				g = make(Pattern, len(l))
				globals[p] = g
			}
			for i, v := range l {
				if i < len(g) {
					g[i] += v
				}
			}
		}
	}
	type cand struct {
		person PersonID
		dist   int64
	}
	var cands []cand
	for p, g := range globals {
		d, err := pattern.MaxAbsDiff(qGlobal, g)
		if err != nil {
			continue
		}
		if d <= eps {
			cands = append(cands, cand{person: p, dist: d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].person < cands[j].person
	})
	if topK > 0 && len(cands) > topK {
		cands = cands[:topK]
	}
	out := make([]PersonID, len(cands))
	for i, c := range cands {
		out[i] = c.person
	}
	return out, nil
}
