package bench

import (
	"context"
	"fmt"
	"io"

	"dimatch/internal/cdr"
	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/metrics"
)

// ResilienceRow is one point of the failure-injection experiment: search
// quality after a number of base stations have been severed.
type ResilienceRow struct {
	StationsKilled int
	StationsTotal  int
	Precision      float64
	Recall         float64
	F1             float64
}

// Resilience measures graceful degradation: base stations
// are killed one group at a time and the same queries re-run under strat
// (zero selects the WBF default). Losing a station loses the local pieces
// it held — affected persons' weight sums fall below 1, so recall decays
// while precision holds (the surviving evidence is still exact).
func Resilience(ctx context.Context, cfg AblationConfig, killSteps []int, strat cluster.Strategy) ([]ResilienceRow, error) {
	if strat == 0 {
		strat = cluster.StrategyWBF
	}
	cfg = cfg.withDefaults()
	if len(killSteps) == 0 {
		killSteps = []int{0, 4, 8, 16, 32}
	}
	city := cdr.DefaultConfig()
	city.Seed = cfg.Seed
	city.Persons = cfg.Persons
	d, err := cdr.Generate(city)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Options{
		Params: core.Params{
			Bits:           1 << 18,
			Hashes:         5,
			Samples:        core.DefaultSamples,
			Epsilon:        1,
			Seed:           cfg.Seed,
			PositionSalted: true,
		},
		MinScore: 0.9,
	}, stationData(d))
	if err != nil {
		return nil, err
	}
	cl.Start()
	defer cl.Shutdown() //nolint:errcheck // benchmark teardown

	var refs []cdr.PersonID
	for _, c := range cdr.Categories() {
		refs = append(refs, pickReferences(d, c, 1)...)
	}
	queries := make([]core.Query, len(refs))
	for i, ref := range refs {
		queries[i] = queryFor(d, core.QueryID(i+1), ref)
	}

	stations := d.StationIDs()
	killed := 0
	rows := make([]ResilienceRow, 0, len(killSteps))
	for _, target := range killSteps {
		if target > len(stations) {
			target = len(stations)
		}
		for killed < target {
			if err := cl.KillStation(uint32(stations[killed])); err != nil {
				return nil, err
			}
			killed++
		}
		out, err := cl.Search(ctx, queries, cluster.WithStrategy(strat))
		if err != nil {
			return nil, err
		}
		var total metrics.Confusion
		for i, ref := range refs {
			total.Add(scoreQuery(out, core.QueryID(i+1), ref, relevantSet(d, ref)))
		}
		rows = append(rows, ResilienceRow{
			StationsKilled: killed,
			StationsTotal:  len(stations),
			Precision:      total.Precision(),
			Recall:         total.Recall(),
			F1:             total.F1(),
		})
	}
	return rows, nil
}

// RenderResilience writes the failure-injection results as a text table.
func RenderResilience(w io.Writer, rows []ResilienceRow) {
	fmt.Fprintln(w, "Failure injection: search quality vs killed base stations")
	fmt.Fprintf(w, "%8s %8s %10s %10s %10s\n", "killed", "total", "precision", "recall", "f1")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d %10.3f %10.3f %10.3f\n", r.StationsKilled, r.StationsTotal, r.Precision, r.Recall, r.F1)
	}
}
