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

// pickReferences returns up to n persons of a category whose role anchors
// occupy distinct stations (their locals expose the category's full split).
// A query built from a person whose anchors collapsed onto one station has
// merged locals that other members' separate pieces cannot partition, so a
// provider would choose clean exemplars; if the category has too few, the
// remainder is filled with merged members.
func pickReferences(d *cdr.Dataset, c cdr.Category, n int) []core.PersonID {
	ids := d.PersonsInCategory(c)
	var clean, merged []core.PersonID
	for _, id := range ids {
		p, err := d.PersonByID(id)
		if err != nil {
			continue
		}
		if len(d.LocalsOf(id)) == len(p.Anchors) {
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
