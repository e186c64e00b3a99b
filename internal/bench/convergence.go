package bench

import (
	"context"
	"fmt"
	"io"

	"dimatch/internal/cdr"
	"dimatch/internal/core"
)

// ConvergenceConfig parameterizes the sample-count study of Section V-B:
// "when the number of sample values is 5, the accuracy rates in different
// groups of data become converged, and when [it] is 12, the accuracy rates
// ... become stable". Group g's city is seeded 1 + 101·(g-1), and each
// group's search scores one reference per category.
type ConvergenceConfig struct {
	// Groups is the number of independent data groups (the paper uses four
	// days of data; we use four seeds). Default 4.
	Groups int
	// SampleCounts is the sweep of b (default 1..16).
	SampleCounts []int
	// Persons per group (default 120).
	Persons int
}

func (c ConvergenceConfig) withDefaults() ConvergenceConfig {
	if c.Groups == 0 {
		c.Groups = 4
	}
	if len(c.SampleCounts) == 0 {
		c.SampleCounts = []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16}
	}
	if c.Persons == 0 {
		c.Persons = 120
	}
	return c
}

// ConvergencePoint is one b value's accuracy per data group.
type ConvergencePoint struct {
	Samples  int
	Accuracy []float64 // F1 per group
}

// Spread returns max-min accuracy across groups, the convergence measure.
func (p ConvergencePoint) Spread() float64 {
	if len(p.Accuracy) == 0 {
		return 0
	}
	lo, hi := p.Accuracy[0], p.Accuracy[0]
	for _, a := range p.Accuracy[1:] {
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	return hi - lo
}

// Convergence runs the study. Patterns are four days long (16 intervals)
// so the b sweep has room above the paper's stable point of 12. Each
// group's city is generated once; each b searches it over a fresh cluster,
// since the filter pipeline depends on b.
func Convergence(ctx context.Context, cfg ConvergenceConfig) ([]ConvergencePoint, error) {
	cfg = cfg.withDefaults()
	cities := make([]*cdr.Dataset, cfg.Groups)
	refs := make([][]core.PersonID, cfg.Groups)
	for gi := range cities {
		d, err := genCity(1+uint64(gi)*101, cfg.Persons, func(c *cdr.Config) { c.Days = 4 })
		if err != nil {
			return nil, err
		}
		cities[gi], refs[gi] = d, references(d, oneEach)
	}
	points := make([]ConvergencePoint, 0, len(cfg.SampleCounts))
	for _, b := range cfg.SampleCounts {
		point := ConvergencePoint{Samples: b}
		for gi, d := range cities {
			total, _, err := scoreOnce(ctx, d, effectiveParams(1, b), refs[gi])
			if err != nil {
				return nil, err
			}
			point.Accuracy = append(point.Accuracy, total.F1())
		}
		points = append(points, point)
	}
	return points, nil
}

// RenderConvergence writes the study as a text table.
func RenderConvergence(w io.Writer, points []ConvergencePoint) {
	fmt.Fprintln(w, "Convergence study (Section V-B): F1 per data group vs sample count b")
	if len(points) == 0 {
		return
	}
	fmt.Fprintf(w, "%6s", "b")
	for i := range points[0].Accuracy {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("group%d", i+1))
	}
	fmt.Fprintf(w, " %8s\n", "spread")
	for _, p := range points {
		fmt.Fprintf(w, "%6d", p.Samples)
		for _, a := range p.Accuracy {
			fmt.Fprintf(w, " %8.3f", a)
		}
		fmt.Fprintf(w, " %8.3f\n", p.Spread())
	}
	fmt.Fprintln(w, "(paper: groups converge by b=5 and are stable by b=12)")
}
