package bench

import (
	"context"
	"fmt"
	"io"

	"dimatch/internal/bloom"
	"dimatch/internal/cdr"
	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/metrics"
)

// AblationConfig parameterizes the design-choice ablations: the choices this
// reproduction made where the paper is silent (position salting, the
// accumulated-domain ε band, filter sizing) and the failure injection.
type AblationConfig struct {
	Seed          uint64
	Persons       int
	QueriesScored int
}

func (c AblationConfig) withDefaults() AblationConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Persons == 0 {
		c.Persons = 300
	}
	if c.QueriesScored == 0 {
		c.QueriesScored = 6
	}
	return c
}

// AblationRow is one configuration's effectiveness and cost.
type AblationRow struct {
	Name      string
	Precision float64
	Recall    float64
	F1        float64
	BytesUp   uint64
	Reports   int
}

// runVariant executes one parameter variant over a fresh city and scores
// one query per category.
func runVariant(ctx context.Context, cfg AblationConfig, name string, params core.Params, minScore float64) (AblationRow, error) {
	city := cdr.DefaultConfig()
	city.Seed = cfg.Seed
	city.Persons = cfg.Persons
	d, err := cdr.Generate(city)
	if err != nil {
		return AblationRow{}, err
	}
	cl, err := cluster.New(cluster.Options{Params: params, MinScore: minScore}, stationData(d))
	if err != nil {
		return AblationRow{}, err
	}
	cl.Start()
	defer cl.Shutdown() //nolint:errcheck // benchmark teardown

	var refs []cdr.PersonID
	for _, c := range cdr.Categories() {
		refs = append(refs, pickReferences(d, c, 1)...)
	}
	if len(refs) > cfg.QueriesScored {
		refs = refs[:cfg.QueriesScored]
	}
	queries := make([]core.Query, len(refs))
	for i, ref := range refs {
		queries[i] = queryFor(d, core.QueryID(i+1), ref)
	}
	out, err := cl.Search(ctx, queries, cluster.WithStrategy(cluster.StrategyWBF))
	if err != nil {
		return AblationRow{}, err
	}
	var total metrics.Confusion
	for i, ref := range refs {
		total.Add(scoreQuery(out, core.QueryID(i+1), ref, relevantSet(d, ref)))
	}
	return AblationRow{
		Name:      name,
		Precision: total.Precision(),
		Recall:    total.Recall(),
		F1:        total.F1(),
		BytesUp:   out.Cost.BytesUp,
		Reports:   out.Cost.ReportsReceived,
	}, nil
}

// AblationSalting measures core.Params.PositionSalted: salted vs the paper's
// unsalted keys at ε = 1, plus the unsalted exact-matching (ε = 0) case
// where the original scheme is sound.
func AblationSalting(ctx context.Context, cfg AblationConfig) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	base := core.Params{
		Bits:    1 << 18,
		Hashes:  5,
		Samples: core.DefaultSamples,
		Seed:    cfg.Seed,
	}
	variants := []struct {
		name     string
		mutate   func(*core.Params)
		minScore float64
	}{
		{name: "salted eps=1 (default)", mutate: func(p *core.Params) { p.PositionSalted = true; p.Epsilon = 1 }, minScore: 0.9},
		{name: "unsalted eps=1 (paper)", mutate: func(p *core.Params) { p.Epsilon = 1 }, minScore: 0.9},
		{name: "unsalted eps=0 (paper, exact)", mutate: func(p *core.Params) {}, minScore: 0.9},
	}
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		p := base
		v.mutate(&p)
		row, err := runVariant(ctx, cfg, v.name, p, v.minScore)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationTolerance measures core.ToleranceMode: scaled (no false negatives)
// versus absolute (cheaper, lossy) ε banding.
func AblationTolerance(ctx context.Context, cfg AblationConfig) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	base := core.Params{
		Bits:           1 << 18,
		Hashes:         5,
		Samples:        core.DefaultSamples,
		Epsilon:        1,
		Seed:           cfg.Seed,
		PositionSalted: true,
	}
	rows := make([]AblationRow, 0, 2)
	for _, v := range []struct {
		name string
		mode core.ToleranceMode
	}{
		{name: "scaled bands (default)", mode: core.ToleranceScaled},
		{name: "absolute bands", mode: core.ToleranceAbsolute},
	} {
		p := base
		p.Tolerance = v.mode
		row, err := runVariant(ctx, cfg, v.name, p, 0.9)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SizingRow is one point of the filter-sizing sweep.
type SizingRow struct {
	Bits       uint64
	Fill       float64
	AnalyticFP float64
	MeasuredFP float64
	Precision  float64
}

// SizingSweep measures filter fill, the analytic value-level false-positive
// rate and the measured rate on guaranteed-absent probes, across filter
// sizes — the empirical side of the paper's "upper bound tightness"
// discussion (Section V).
func SizingSweep(ctx context.Context, cfg AblationConfig, bitSizes []uint64) ([]SizingRow, error) {
	cfg = cfg.withDefaults()
	if len(bitSizes) == 0 {
		bitSizes = []uint64{1 << 14, 1 << 16, 1 << 18, 1 << 20}
	}
	city := cdr.DefaultConfig()
	city.Seed = cfg.Seed
	city.Persons = cfg.Persons
	d, err := cdr.Generate(city)
	if err != nil {
		return nil, err
	}
	var refs []cdr.PersonID
	for _, c := range cdr.Categories() {
		refs = append(refs, pickReferences(d, c, 1)...)
	}
	rows := make([]SizingRow, 0, len(bitSizes))
	for _, bits := range bitSizes {
		params := core.Params{
			Bits:           bits,
			Hashes:         5,
			Samples:        core.DefaultSamples,
			Epsilon:        1,
			Seed:           cfg.Seed,
			PositionSalted: true,
		}
		enc, err := core.NewEncoder(params, d.Length())
		if err != nil {
			return nil, err
		}
		for i, ref := range refs {
			if err := enc.AddQuery(queryFor(d, core.QueryID(i+1), ref)); err != nil {
				return nil, err
			}
		}
		filter := enc.Filter()
		an := core.Analyze(filter)

		// Measure value-level FP on values far beyond any accumulated
		// pattern (guaranteed absent).
		probes, hits := 50_000, 0
		bf, err := bloom.FromParts(filter.Words(), params.Bits, params.Hashes, params.Seed, filter.Inserted())
		if err != nil {
			return nil, err
		}
		for i := 0; i < probes; i++ {
			if bf.Contains(1_000_000 + int64(i)*7919) {
				hits++
			}
		}

		// Precision at this sizing through the full pipeline.
		row, err := runVariant(ctx, cfg, fmt.Sprintf("m=%d", bits), params, 0.9)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SizingRow{
			Bits:       bits,
			Fill:       filter.FillRatio(),
			AnalyticFP: an.ValueFPProb,
			MeasuredFP: float64(hits) / float64(probes),
			Precision:  row.Precision,
		})
	}
	return rows, nil
}

// RenderAblation writes ablation rows as a text table.
func RenderAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-32s %10s %10s %10s %10s %9s\n", "variant", "precision", "recall", "f1", "bytes-up", "reports")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %10.3f %10.3f %10.3f %10d %9d\n", r.Name, r.Precision, r.Recall, r.F1, r.BytesUp, r.Reports)
	}
}

// RenderSizing writes the sizing sweep as a text table.
func RenderSizing(w io.Writer, rows []SizingRow) {
	fmt.Fprintln(w, "Filter sizing sweep: fill, analytic vs measured value-level FP, end-to-end precision")
	fmt.Fprintf(w, "%12s %8s %12s %12s %10s\n", "bits", "fill", "analyticFP", "measuredFP", "precision")
	for _, r := range rows {
		fmt.Fprintf(w, "%12d %8.3f %12.5f %12.5f %10.3f\n", r.Bits, r.Fill, r.AnalyticFP, r.MeasuredFP, r.Precision)
	}
}
