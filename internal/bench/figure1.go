package bench

import (
	"fmt"
	"io"

	"dimatch/internal/cdr"
	"dimatch/internal/metrics"
	"dimatch/internal/pattern"
)

// Figure1aConfig parameterizes the periodicity/divisibility figures
// (Figure1a and Figure3), drawn from the city of seed 1.
type Figure1aConfig struct {
	// Persons sizes the city; zero takes the default 310, the paper's
	// study population.
	Persons int
}

// Figure1a reproduces Figure 1(a): the normalized communication patterns of
// the six population categories over two days in 6-hour units. Each curve
// is the category's mean global pattern normalized to mean 1 (the paper
// normalizes "to the mean value").
func Figure1a(cfg Figure1aConfig) ([]Series, error) {
	return categoryFigure(cfg, 2, false)
}

// Figure3 reproduces Figure 3: the accumulated category patterns over one
// week, where the categories become divisible over time.
func Figure3(cfg Figure1aConfig) ([]Series, error) {
	return categoryFigure(cfg, 7, true)
}

// categoryFigure generates a city of days days and draws its category
// curves (categorySeries).
func categoryFigure(cfg Figure1aConfig, days int, accumulate bool) ([]Series, error) {
	d, err := genCity(1, cfg.Persons, func(c *cdr.Config) { c.Days = days })
	if err != nil {
		return nil, err
	}
	return categorySeries(d, accumulate), nil
}

// categorySeries builds one curve per category, optionally accumulated.
func categorySeries(d *cdr.Dataset, accumulate bool) []Series {
	out := make([]Series, 0, 6)
	for _, c := range cdr.Categories() {
		mean := d.CategoryMean(c)
		ys := make([]float64, len(mean))
		if accumulate {
			run := 0.0
			for i, v := range mean {
				run += v
				ys[i] = run
			}
		} else {
			// Normalize to the curve's own mean, as the paper plots.
			var sum float64
			for _, v := range mean {
				sum += v
			}
			m := sum / float64(len(mean))
			for i, v := range mean {
				if m > 0 {
					ys[i] = v / m
				}
			}
		}
		xs := make([]float64, len(mean))
		for i := range xs {
			xs[i] = float64(i)
		}
		out = append(out, Series{Label: c.String(), X: xs, Y: ys})
	}
	return out
}

// Figure1bConfig parameterizes the local-similarity CDF, drawn from the
// city of seed 1.
type Figure1bConfig struct {
	// Persons sizes the city (default 310).
	Persons int
}

// Figure1bResult carries the CDF plus the headline statistic the paper
// quotes ("the percentage that there exist more than one similar local
// patterns is greater than 90%").
type Figure1bResult struct {
	CDF []metrics.CDFPoint
	// FractionAtLeastOne is P(X >= 1): the share of similar-global pairs
	// sharing at least one similar local pattern.
	FractionAtLeastOne float64
	Pairs              int
}

// Figure1b reproduces Figure 1(b): over pairs of persons with ε-similar
// global patterns, the CDF of how many of one person's local patterns have
// an ε-similar counterpart among the other's.
func Figure1b(cfg Figure1bConfig) (*Figure1bResult, error) {
	// eps is the similarity tolerance of both the global pair filter and
	// the per-local comparison.
	const eps = 4
	d, err := genCity(1, cfg.Persons, nil)
	if err != nil {
		return nil, err
	}
	var counts []int
	atLeastOne := 0
	for _, c := range cdr.Categories() {
		ids := d.PersonsInCategory(c)
		for i := 0; i < len(ids); i++ {
			gi := d.GlobalOf(ids[i])
			li := d.QueryLocalsOf(ids[i])
			for j := i + 1; j < len(ids); j++ {
				if !pattern.Similar(gi, d.GlobalOf(ids[j]), eps) {
					continue // Figure 1b conditions on similar globals
				}
				similar := 0
				for _, lj := range d.QueryLocalsOf(ids[j]) {
					for _, l := range li {
						if pattern.Similar(l, lj, eps) {
							similar++
							break
						}
					}
				}
				counts = append(counts, similar)
				if similar >= 1 {
					atLeastOne++
				}
			}
		}
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("bench: no similar-global pairs at ε=%d", eps)
	}
	return &Figure1bResult{
		CDF:                metrics.CDF(counts),
		FractionAtLeastOne: float64(atLeastOne) / float64(len(counts)),
		Pairs:              len(counts),
	}, nil
}

// RenderFigure1a writes the figure as a text table.
func RenderFigure1a(w io.Writer, series []Series) {
	renderSeries(w, "Figure 1(a): normalized category patterns, 2 days x 6-hour units", "interval", series)
}

// RenderFigure3 writes the figure as a text table.
func RenderFigure3(w io.Writer, series []Series) {
	renderSeries(w, "Figure 3: accumulated category patterns, 1 week x 6-hour units", "interval", series)
}

// RenderFigure1b writes the CDF as a text table.
func RenderFigure1b(w io.Writer, r *Figure1bResult) {
	fmt.Fprintf(w, "Figure 1(b): CDF of similar local patterns over %d similar-global pairs\n", r.Pairs)
	fmt.Fprintf(w, "%8s %8s\n", "locals", "CDF")
	for _, p := range r.CDF {
		fmt.Fprintf(w, "%8d %8.3f\n", p.X, p.P)
	}
	fmt.Fprintf(w, "P(>=1 similar local) = %.3f (paper: > 0.90)\n", r.FractionAtLeastOne)
}
