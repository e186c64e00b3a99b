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
//	AblationTolerance  scaled vs absolute ε bands
//	SizingSweep        analytic vs measured filter false positives
//	Resilience         search quality vs killed base stations
package bench

import (
	"fmt"
	"io"

	"dimatch/internal/cdr"
	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/metrics"
	"dimatch/internal/pattern"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// stationData converts a dataset to the cluster's input form.
func stationData(d *cdr.Dataset) map[uint32]map[core.PersonID]pattern.Pattern {
	out := make(map[uint32]map[core.PersonID]pattern.Pattern)
	for _, s := range d.StationIDs() {
		locals := d.StationLocals(s)
		m := make(map[core.PersonID]pattern.Pattern, len(locals))
		for p, l := range locals {
			m[core.PersonID(p)] = l
		}
		out[uint32(s)] = m
	}
	return out
}

// queryFor builds the query pattern set of one person.
func queryFor(d *cdr.Dataset, id core.QueryID, person cdr.PersonID) core.Query {
	return core.Query{ID: id, Locals: d.QueryLocalsOf(person)}
}

// pickReferences returns up to n persons of a category whose role anchors
// occupy distinct stations (their locals expose the category's full split).
// A query built from a person whose anchors collapsed onto one station has
// merged locals that other members' separate pieces cannot partition, so a
// provider would choose clean exemplars; if the category has too few, the
// remainder is filled with merged members.
func pickReferences(d *cdr.Dataset, c cdr.Category, n int) []cdr.PersonID {
	ids := d.PersonsInCategory(c)
	var clean, merged []cdr.PersonID
	for _, id := range ids {
		p, err := d.PersonByID(id)
		if err != nil {
			continue
		}
		if len(d.LocalsOf(id)) == len(p.Anchors) {
			clean = append(clean, id)
		} else {
			merged = append(merged, id)
		}
	}
	out := append(clean, merged...)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// relevantSet returns the ground-truth relevant persons for a query built
// from the given person (same category, excluding the person).
func relevantSet(d *cdr.Dataset, person cdr.PersonID) []core.PersonID {
	p, err := d.PersonByID(person)
	if err != nil {
		return nil
	}
	var out []core.PersonID
	for _, other := range d.PersonsInCategory(p.Category) {
		if other == person {
			continue
		}
		out = append(out, core.PersonID(other))
	}
	return out
}

// scoreQuery evaluates one query's retrieved list against ground truth,
// excluding the reference person from both sides.
func scoreQuery(out *cluster.Outcome, q core.QueryID, ref cdr.PersonID, relevant []core.PersonID) metrics.Confusion {
	var retrieved []core.PersonID
	for _, r := range out.PerQuery[q] {
		if r.Person == core.PersonID(ref) {
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
