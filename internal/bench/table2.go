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

// TableIIConfig parameterizes the effectiveness evaluation on the labelled
// study population (paper Data set 2: 310 persons over four days, March
// 28-31 2009, six ground-truth categories).
type TableIIConfig struct {
	// Persons per day window (default 310, the paper's population).
	Persons int
	// Days is the number of independent one-day windows (default 4).
	Days int
	// QueriesPerDay is how many reference persons are queried per window
	// (default 12, two per category).
	QueriesPerDay int
	// Seed of the first window.
	Seed uint64
	// Verify enables the candidate-verification phase (exact Eq. 2 check on
	// fetched globals) — eliminates residual false positives for a small
	// extra round trip.
	Verify bool
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
	if c.Seed == 0 {
		c.Seed = 328 // March 28th
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
	rows := make([]TableIIRow, 0, cfg.Days)
	for day := 0; day < cfg.Days; day++ {
		city := cdr.DefaultConfig()
		city.Seed = cfg.Seed + uint64(day)
		city.Persons = cfg.Persons
		city.Days = 1
		city.IntervalsPerDay = 4 // the paper's 6-hour figure resolution
		d, err := cdr.Generate(city)
		if err != nil {
			return nil, err
		}
		cl, err := dimatch.NewCluster(dimatch.Options{
			Params: core.Params{
				Bits:           1 << 18,
				Hashes:         5,
				Samples:        core.DefaultSamples,
				Epsilon:        1,
				Seed:           cfg.Seed,
				PositionSalted: true,
			},
			MinScore: 0.9,
		}, d.Length(), dimatch.Members(dimatch.StationData(d))...)
		if err != nil {
			return nil, err
		}

		// Reference persons cycle the categories, preferring exemplars
		// whose anchors expose the full category split.
		perCat := (cfg.QueriesPerDay + 5) / 6
		pools := make([][]core.PersonID, 0, 6)
		for _, c := range cdr.Categories() {
			pools = append(pools, pickReferences(d, c, perCat))
		}
		var refs []core.PersonID
		for round := 0; len(refs) < cfg.QueriesPerDay; round++ {
			added := false
			for _, pool := range pools {
				if round < len(pool) && len(refs) < cfg.QueriesPerDay {
					refs = append(refs, pool[round])
					added = true
				}
			}
			if !added {
				break
			}
		}
		queries := make([]core.Query, len(refs))
		for i, ref := range refs {
			queries[i] = dimatch.QueryFromPerson(d, core.QueryID(i+1), ref)
		}
		out, err := cl.Search(ctx, queries, dimatch.WithStrategy(dimatch.StrategyWBF), dimatch.WithVerify(cfg.Verify))
		if err != nil {
			_ = cl.Shutdown()
			return nil, err
		}
		var total metrics.Confusion
		for i, ref := range refs {
			total.Add(scoreQuery(out, core.QueryID(i+1), ref, dimatch.RelevantSet(d, ref)))
		}
		if err := cl.Shutdown(); err != nil {
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
