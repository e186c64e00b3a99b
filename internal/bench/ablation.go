package bench

import (
	"cmp"
	"context"
	"fmt"
	"io"

	"dimatch"
	"dimatch/internal/bloom"
	"dimatch/internal/cdr"
	"dimatch/internal/core"
)

// AblationConfig parameterizes the design-choice ablations: the choices this
// reproduction made where the paper is silent (position salting, filter
// sizing) and the failure injection. Each runs over the city of seed 1 and
// scores one reference per category.
type AblationConfig struct {
	// Persons sizes the city (default 300).
	Persons int
}

// ablationCity generates the ablation city and its references, one per
// category.
func ablationCity(cfg AblationConfig) (*cdr.Dataset, []core.PersonID, error) {
	d, err := genCity(1, cmp.Or(cfg.Persons, 300), nil)
	if err != nil {
		return nil, nil, err
	}
	return d, references(d, oneEach), nil
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

// runVariant scores one WBF search of refs over a fresh cluster of d
// searching with params.
func runVariant(ctx context.Context, d *cdr.Dataset, refs []core.PersonID, name string, params core.Params) (AblationRow, error) {
	total, out, err := scoreOnce(ctx, d, params, refs)
	if err != nil {
		return AblationRow{}, err
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
	d, refs, err := ablationCity(cfg)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name   string
		mutate func(*core.Params)
	}{
		{name: "salted eps=1 (default)", mutate: func(p *core.Params) {}},
		{name: "unsalted eps=1 (paper)", mutate: func(p *core.Params) { p.PositionSalted = false }},
		{name: "unsalted eps=0 (paper, exact)", mutate: func(p *core.Params) { p.PositionSalted = false; p.Epsilon = 0 }},
	}
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		p := effectiveParams(1, core.DefaultSamples)
		v.mutate(&p)
		row, err := runVariant(ctx, d, refs, v.name, p)
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
	if len(bitSizes) == 0 {
		bitSizes = []uint64{1 << 14, 1 << 16, 1 << 18, 1 << 20}
	}
	d, refs, err := ablationCity(cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]SizingRow, 0, len(bitSizes))
	for _, bits := range bitSizes {
		params := effectiveParams(1, core.DefaultSamples)
		params.Bits = bits
		enc, err := core.NewEncoder(params, d.Length())
		if err != nil {
			return nil, err
		}
		for i, ref := range refs {
			if err := enc.AddQuery(dimatch.QueryFromPerson(d, core.QueryID(i+1), ref)); err != nil {
				return nil, err
			}
		}
		filter := enc.Filter()
		an := core.Analyze(filter)

		// Measure value-level FP on values far beyond any accumulated
		// pattern (guaranteed absent).
		// The plain Bloom view of the WBF: its set bits, without the lists.
		probes, hits := 50_000, 0
		words := make([]uint64, (params.Bits+63)/64)
		for _, pos := range filter.Positions() {
			words[pos/64] |= 1 << (pos % 64)
		}
		bf, err := bloom.FromParts(words, params.Bits, params.Hashes, params.Seed, 0)
		if err != nil {
			return nil, err
		}
		for i := 0; i < probes; i++ {
			if bf.Contains(1_000_000 + int64(i)*7919) {
				hits++
			}
		}

		// Precision at this sizing through the full pipeline.
		row, err := runVariant(ctx, d, refs, fmt.Sprintf("m=%d", bits), params)
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
