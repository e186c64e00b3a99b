package bench

import (
	"context"
	"fmt"
	"io"

	"dimatch/internal/cdr"
	"dimatch/internal/core"
)

// TableIIConfig parameterizes the effectiveness evaluation on the labelled
// study population (paper Data set 2: 310 persons over four days, March
// 28-31 2009, six ground-truth categories). Window k, counting from 0, is
// the city of seed 328 + k (March 28th onward), and every window searches
// without the verification phase.
type TableIIConfig struct {
	// Persons per day window (default 310, the paper's population).
	Persons int
	// Days is the number of independent one-day windows (default 4).
	Days int
	// QueriesPerDay is how many reference persons are queried per window
	// (default 12, two per category).
	QueriesPerDay int
}

func (c TableIIConfig) withDefaults() TableIIConfig {
	if c.Persons == 0 {
		c.Persons = 310
	}
	if c.Days == 0 {
		c.Days = 4
	}
	if c.QueriesPerDay == 0 {
		c.QueriesPerDay = 12
	}
	return c
}

// TableIIRow is one day's effectiveness numbers.
type TableIIRow struct {
	Day       string
	Precision float64
	Recall    float64
	F1        float64
}

// TableII runs the per-day effectiveness evaluation: for each one-day
// window, query a sample of labelled persons and score retrieval against
// category membership (the paper's ground truth).
func TableII(ctx context.Context, cfg TableIIConfig) ([]TableIIRow, error) {
	cfg = cfg.withDefaults()
	dayNames := []string{
		"March 28th, 2009", "March 29th, 2009", "March 30th, 2009", "March 31st, 2009",
		"day 5", "day 6", "day 7",
	}
	const seed = 328 // March 28th
	rows := make([]TableIIRow, 0, cfg.Days)
	for day := 0; day < cfg.Days; day++ {
		d, err := genCity(seed+uint64(day), cfg.Persons, func(c *cdr.Config) {
			c.Days = 1
			c.IntervalsPerDay = 4 // the paper's 6-hour figure resolution
		})
		if err != nil {
			return nil, err
		}
		total, _, err := scoreOnce(ctx, d, effectiveParams(seed, core.DefaultSamples), references(d, cfg.QueriesPerDay))
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("day %d", day+1)
		if day < len(dayNames) {
			name = dayNames[day]
		}
		rows = append(rows, TableIIRow{
			Day:       name,
			Precision: total.Precision(),
			Recall:    total.Recall(),
			F1:        total.F1(),
		})
	}
	return rows, nil
}

// RenderTableII writes the table in the paper's format.
func RenderTableII(w io.Writer, rows []TableIIRow) {
	fmt.Fprintln(w, "Table II: incomplete pattern matching effectiveness")
	fmt.Fprintf(w, "%-18s %10s %10s %10s\n", "Days", "Precision", "Recall", "F1")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10.2f %10.2f %10.2f\n", r.Day, r.Precision, r.Recall, r.F1)
	}
	fmt.Fprintln(w, "(paper: precision 0.97-0.99, recall 0.99, F1 0.98-0.99)")
}
