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

// ConvergenceConfig parameterizes the sample-count study of Section V-B:
// "when the number of sample values is 5, the accuracy rates in different
// groups of data become converged, and when [it] is 12, the accuracy rates
// ... become stable".
type ConvergenceConfig struct {
	// Groups is the number of independent data groups (the paper uses four
	// days of data; we use four seeds). Default 4.
	Groups int
	// SampleCounts is the sweep of b (default 1..16).
	SampleCounts []int
	// Persons per group (default 120).
	Persons int
	// QueriesScored per group per point (default 6, one per category).
	QueriesScored int
	// Seed of the first group.
	Seed uint64
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
	if c.QueriesScored == 0 {
		c.QueriesScored = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
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
// so the b sweep has room above the paper's stable point of 12.
func Convergence(ctx context.Context, cfg ConvergenceConfig) ([]ConvergencePoint, error) {
	cfg = cfg.withDefaults()

	type group struct {
		city *cdr.Dataset
		cl   *dimatch.Cluster
		refs []core.PersonID
	}
	groups := make([]*group, 0, cfg.Groups)
	defer func() {
		for _, g := range groups {
			_ = g.cl.Shutdown()
		}
	}()

	points := make([]ConvergencePoint, 0, len(cfg.SampleCounts))
	for _, b := range cfg.SampleCounts {
		point := ConvergencePoint{Samples: b}
		for gi := 0; gi < cfg.Groups; gi++ {
			// Build each group lazily once; rebuild the cluster per b by
			// recreating options (the filter pipeline depends on b).
			city := cdr.DefaultConfig()
			city.Seed = cfg.Seed + uint64(gi)*101
			city.Persons = cfg.Persons
			city.Days = 4
			d, err := cdr.Generate(city)
			if err != nil {
				return nil, err
			}
			opts := dimatch.Options{
				Params: core.Params{
					Bits:           1 << 18,
					Hashes:         5,
					Samples:        b,
					Epsilon:        1,
					Seed:           cfg.Seed,
					PositionSalted: true,
				},
				MinScore: 0.9,
			}
			cl, err := dimatch.NewCluster(opts, d.Length(), dimatch.Members(dimatch.StationData(d))...)
			if err != nil {
				return nil, err
			}

			var refs []core.PersonID
			for _, c := range cdr.Categories() {
				refs = append(refs, pickReferences(d, c, 1)...)
			}
			if len(refs) > cfg.QueriesScored {
				refs = refs[:cfg.QueriesScored]
			}
			queries := make([]core.Query, len(refs))
			for i, ref := range refs {
				queries[i] = dimatch.QueryFromPerson(d, core.QueryID(i+1), ref)
			}
			out, err := cl.Search(ctx, queries, dimatch.WithStrategy(dimatch.StrategyWBF))
			if err != nil {
				_ = cl.Shutdown()
				return nil, err
			}
			var total metrics.Confusion
			for i, ref := range refs {
				total.Add(scoreQuery(out, core.QueryID(i+1), ref, dimatch.RelevantSet(d, ref)))
			}
			point.Accuracy = append(point.Accuracy, total.F1())
			if err := cl.Shutdown(); err != nil {
				return nil, err
			}
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
