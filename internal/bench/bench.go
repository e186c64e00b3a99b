// Package bench regenerates every table and figure of the paper's
// evaluation (Section V) on the synthetic city substrate. Each runner
// returns typed rows/series and has a text renderer; cmd/di-bench drives
// them from the command line.
//
// Experiment index — runner and what it reproduces:
//
//	Figure1a           E1: normalized category patterns, 2 days
//	Figure1b           E2: CDF of similar local patterns
//	Figure3            E3: accumulated category patterns, 1 week
//	Convergence        E4: F1 per data group vs sample count b
//	Figure4            E5-E8: precision, time, communication and storage
//	                   vs number of patterns, per strategy
//	TableII            E9: per-day effectiveness
//	AblationSalting    position salting at ε > 0
//	SizingSweep        analytic vs measured filter false positives
//	Resilience         search quality vs killed base stations
package bench

import (
	"context"
	"fmt"
	"io"

	"dimatch"
	"dimatch/internal/cdr"
	"dimatch/internal/core"
	"dimatch/internal/metrics"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// genCity generates the synthetic city of seed: the default city with
// persons residents (the default 310 when zero), then tweak applied when set.
func genCity(seed uint64, persons int, tweak func(*cdr.Config)) (*cdr.Dataset, error) {
	city := cdr.DefaultConfig()
	city.Seed = seed
	if persons != 0 {
		city.Persons = persons
	}
	if tweak != nil {
		tweak(&city)
	}
	return cdr.Generate(city)
}

// effectiveParams is the pipeline of the effectiveness studies: a salted
// 2^18-bit filter of 5 hashes at ε = 1, seeded with seed, taking b samples.
func effectiveParams(seed uint64, b int) core.Params {
	return core.Params{
		Bits:           1 << 18,
		Hashes:         5,
		Samples:        b,
		Epsilon:        1,
		Seed:           seed,
		PositionSalted: true,
	}
}

// oneEach is the reference count that picks one person of each of the six
// categories.
const oneEach = 6

// references picks up to n reference persons cycling the categories: the
// first exemplar of each category (pickReferences), then the second of
// each, and so on.
func references(d *cdr.Dataset, n int) []core.PersonID {
	cats := cdr.Categories()
	perCat := (n + len(cats) - 1) / len(cats)
	pools := make([][]core.PersonID, len(cats))
	for i, c := range cats {
		pools[i] = pickReferences(d, c, perCat)
	}
	var refs []core.PersonID
	for round := 0; round < perCat; round++ {
		for _, pool := range pools {
			if round < len(pool) && len(refs) < n {
				refs = append(refs, pool[round])
			}
		}
	}
	return refs
}

// searchScored searches cl under strat with one query per reference (query
// i+1 built from refs[i]) and adds up the queries' confusions against each
// reference's category (scoreQuery).
func searchScored(ctx context.Context, cl *dimatch.Cluster, d *cdr.Dataset, refs []core.PersonID, strat dimatch.Strategy) (metrics.Confusion, *dimatch.Outcome, error) {
	queries := make([]core.Query, len(refs))
	for i, ref := range refs {
		queries[i] = dimatch.QueryFromPerson(d, core.QueryID(i+1), ref)
	}
	var total metrics.Confusion
	out, err := cl.Search(ctx, queries, dimatch.WithStrategy(strat))
	if err != nil {
		return total, nil, err
	}
	for i, ref := range refs {
		total.Add(scoreQuery(out, core.QueryID(i+1), ref, dimatch.RelevantSet(d, ref)))
	}
	return total, out, nil
}

// cityCluster stands d's stations up as an in-process cluster searching
// with p and answering from weight 0.9.
func cityCluster(d *cdr.Dataset, p core.Params) (*dimatch.Cluster, error) {
	return dimatch.NewCluster(dimatch.Options{Params: p, MinScore: 0.9}, d.Length(), dimatch.Members(dimatch.StationData(d))...)
}

// scoreOnce runs one WBF searchScored over a fresh cityCluster(d, p) and
// shuts the cluster down.
func scoreOnce(ctx context.Context, d *cdr.Dataset, p core.Params, refs []core.PersonID) (metrics.Confusion, *dimatch.Outcome, error) {
	cl, err := cityCluster(d, p)
	if err != nil {
		return metrics.Confusion{}, nil, err
	}
	total, out, err := searchScored(ctx, cl, d, refs, dimatch.StrategyWBF)
	if sErr := cl.Shutdown(); err == nil {
		err = sErr
	}
	return total, out, err
}

// pickReferences returns up to n persons of a category whose role anchors
// occupy distinct stations (their locals expose the category's full split).
// A query built from a person whose anchors collapsed onto one station has
// merged locals that other members' separate pieces cannot partition, so a
// provider would choose clean exemplars; if the category has too few, the
// remainder is filled with merged members.
func pickReferences(d *cdr.Dataset, c cdr.Category, n int) []core.PersonID {
	var clean, merged []core.PersonID
	for _, id := range d.PersonsInCategory(c) {
		if cdr.CleanExemplar(d, id) {
			clean = append(clean, core.PersonID(id))
		} else {
			merged = append(merged, core.PersonID(id))
		}
	}
	out := append(clean, merged...)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// scoreQuery evaluates one query's retrieved list against ground truth,
// excluding the reference person from both sides.
func scoreQuery(out *dimatch.Outcome, q core.QueryID, ref core.PersonID, relevant []core.PersonID) metrics.Confusion {
	var retrieved []core.PersonID
	for _, r := range out.PerQuery[q] {
		if r.Person == ref {
			continue
		}
		retrieved = append(retrieved, r.Person)
	}
	return metrics.Evaluate(retrieved, relevant)
}

// renderSeries prints curves as aligned text columns.
func renderSeries(w io.Writer, title, xLabel string, series []Series) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%12s", xLabel)
	for _, s := range series {
		fmt.Fprintf(w, " %14s", s.Label)
	}
	fmt.Fprintln(w)
	if len(series) == 0 || len(series[0].X) == 0 {
		return
	}
	for i := range series[0].X {
		fmt.Fprintf(w, "%12.2f", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(w, " %14.4f", s.Y[i])
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}
