package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"dimatch/internal/cdr"
	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/metrics"
)

// Figure4Config parameterizes the accuracy/efficiency sweep (Figures
// 4a-4d): a growing batch of query pattern sets against a fixed city and a
// fixed-size filter, so the Bloom baseline degrades with load exactly as in
// the paper.
type Figure4Config struct {
	// Seed fixes the city and the query draw.
	Seed uint64
	// Persons sizes the population (default 20_000 — large enough that the
	// naive shipment dominates the filter, as at the paper's scale).
	Persons int
	// Stations sizes the city grid (default 32; the simulator has far
	// fewer cores than a real deployment has stations, so wall-clock time
	// at high station counts measures decode serialization, not matching).
	Stations int
	// PatternCounts is the sweep of a, the number of query pattern sets
	// (default {10, 20, 30, 40, 50}; the paper sweeps 100..500 on a
	// 3.6M-person dataset — both are ~2.5% to 12.5% of the relevant
	// category's size).
	PatternCounts []int
	// QueriesScored caps how many queries per point are evaluated for
	// precision (scoring scans the whole population per query; the filter
	// is always built from all a queries). Default 10.
	QueriesScored int
	// FilterBits fixes m across the sweep (default 1<<15). Fixed sizing is
	// what produces the paper's BF degradation as a grows.
	FilterBits uint64
}

func (c Figure4Config) withDefaults() Figure4Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Persons == 0 {
		c.Persons = 20_000
	}
	if c.Stations == 0 {
		c.Stations = 32
	}
	if len(c.PatternCounts) == 0 {
		c.PatternCounts = []int{10, 25, 50, 75, 100}
	}
	if c.QueriesScored == 0 {
		c.QueriesScored = 10
	}
	if c.FilterBits == 0 {
		c.FilterBits = 1 << 15
	}
	return c
}

// Figure4Point is one x-position of Figures 4a-4d: every strategy's
// precision, time, communication and storage at one query-batch size.
type Figure4Point struct {
	Patterns  int
	Precision map[cluster.Strategy]float64
	Elapsed   map[cluster.Strategy]time.Duration
	// BytesUp is station->center traffic; BytesDissemination is one copy
	// of the query message (broadcast-effective downlink).
	BytesUp            map[cluster.Strategy]uint64
	BytesDissemination map[cluster.Strategy]uint64
	// CenterStorage is what the center must hold to answer (the whole
	// dataset for naive; filter plus reports otherwise).
	CenterStorage map[cluster.Strategy]uint64
	// FilterFill is the WBF bit-array fill ratio, the degradation driver.
	FilterFill float64
}

var figure4Strategies = []cluster.Strategy{cluster.StrategyNaive, cluster.StrategyBF, cluster.StrategyWBF}

// Figure4 runs the sweep in the paper's exact-matching regime (ε = 0, the
// unsalted scheme the paper describes): a service provider searches for
// customers matching preferred customers of one minority segment. Pattern
// diversity within the segment comes from quantized per-person volume
// levels, and ground truth per query is the exact IPM answer (Eq. 2 over
// materialized globals) — so naive precision is 1 by construction, exactly
// as the paper's Figure 4(a) shows.
func Figure4(ctx context.Context, cfg Figure4Config) ([]Figure4Point, error) {
	cfg = cfg.withDefaults()
	city := cdr.DefaultConfig()
	city.Seed = cfg.Seed
	city.Persons = cfg.Persons
	city.Stations = cfg.Stations
	// A week-long window: report traffic is per-match and does not grow
	// with pattern length, while the naive shipment does — the same length
	// asymmetry the paper's month-scale windows exhibit.
	city.Days = 7
	// The provider queries a minority segment, as in the paper's scenario;
	// report traffic scales with the segment's size, the naive shipment
	// with the whole population.
	city.CategoryWeights = []float64{0.04, 0.192, 0.192, 0.192, 0.192, 0.192}
	// Exact-matching regime: no per-interval jitter; diversity via volume
	// levels instead.
	city.Noise = 0
	city.VolumeLevels = 17
	d, err := cdr.Generate(city)
	if err != nil {
		return nil, err
	}
	data := stationData(d)

	maxA := 0
	for _, a := range cfg.PatternCounts {
		if a > maxA {
			maxA = a
		}
	}
	refPool := pickReferences(d, cdr.OfficeWorker, maxA)
	if maxA > len(refPool) {
		return nil, fmt.Errorf("bench: %d queries requested but category holds %d persons", maxA, len(refPool))
	}

	opts := cluster.Options{
		Params: core.Params{
			Bits:    cfg.FilterBits,
			Hashes:  5,
			Samples: core.DefaultSamples,
			Epsilon: 0, // exact matching: the regime where the paper's
			// unsalted scheme is sound (see core.Params.PositionSalted)
			Seed:      cfg.Seed,
			Tolerance: core.ToleranceScaled,
		},
		// Only complete partitions (weight sum exactly 1) are answers.
		MinScore: 0.999,
	}
	cl, err := cluster.New(opts, data)
	if err != nil {
		return nil, err
	}
	cl.Start()
	defer cl.Shutdown() //nolint:errcheck // benchmark teardown

	points := make([]Figure4Point, 0, len(cfg.PatternCounts))
	for _, a := range cfg.PatternCounts {
		queries := make([]core.Query, a)
		for i := 0; i < a; i++ {
			queries[i] = queryFor(d, core.QueryID(i+1), refPool[i])
		}
		point := Figure4Point{
			Patterns:           a,
			Precision:          make(map[cluster.Strategy]float64, 3),
			Elapsed:            make(map[cluster.Strategy]time.Duration, 3),
			BytesUp:            make(map[cluster.Strategy]uint64, 3),
			BytesDissemination: make(map[cluster.Strategy]uint64, 3),
			CenterStorage:      make(map[cluster.Strategy]uint64, 3),
		}
		for _, strat := range figure4Strategies {
			out, err := cl.Search(ctx, queries, cluster.WithStrategy(strat))
			if err != nil {
				return nil, err
			}
			point.Elapsed[strat] = out.Cost.Elapsed
			point.BytesUp[strat] = out.Cost.BytesUp
			point.BytesDissemination[strat] = out.Cost.BytesDown / uint64(cl.Stations())
			point.CenterStorage[strat] = out.Cost.CenterStorageBytes

			scored := cfg.QueriesScored
			if scored > a {
				scored = a
			}
			var total metrics.Confusion
			for i := 0; i < scored; i++ {
				ref := refPool[i]
				oracle, err := cluster.Oracle(data, queries[i], 0, 0)
				if err != nil {
					return nil, err
				}
				relevant := oracle[:0:0]
				for _, p := range oracle {
					if p != core.PersonID(ref) {
						relevant = append(relevant, p)
					}
				}
				total.Add(scoreQuery(out, core.QueryID(i+1), ref, relevant))
			}
			point.Precision[strat] = total.Precision()

			if strat == cluster.StrategyWBF {
				// Rebuild the filter once to read its fill (cheap relative
				// to the search itself).
				enc, err := core.NewEncoder(opts.Params, cl.PatternLength())
				if err != nil {
					return nil, err
				}
				for _, q := range queries {
					if err := enc.AddQuery(q); err != nil {
						return nil, err
					}
				}
				point.FilterFill = enc.Filter().FillRatio()
			}
		}
		points = append(points, point)
	}
	return points, nil
}

// RenderFigure4 writes the four panels as text tables, with communication
// and storage normalized to the naive strategy as the paper plots them.
func RenderFigure4(w io.Writer, points []Figure4Point) {
	fmt.Fprintln(w, "Figure 4(a): precision vs number of patterns")
	fmt.Fprintf(w, "%10s %10s %10s %10s %10s\n", "patterns", "naive", "bf", "wbf", "wbf-fill")
	for _, p := range points {
		fmt.Fprintf(w, "%10d %10.3f %10.3f %10.3f %10.3f\n", p.Patterns,
			p.Precision[cluster.StrategyNaive], p.Precision[cluster.StrategyBF],
			p.Precision[cluster.StrategyWBF], p.FilterFill)
	}
	fmt.Fprintln(w, "\nFigure 4(b): time cost vs number of patterns (ms)")
	fmt.Fprintf(w, "%10s %10s %10s %10s\n", "patterns", "naive", "bf", "wbf")
	for _, p := range points {
		fmt.Fprintf(w, "%10d %10.1f %10.1f %10.1f\n", p.Patterns,
			ms(p.Elapsed[cluster.StrategyNaive]), ms(p.Elapsed[cluster.StrategyBF]),
			ms(p.Elapsed[cluster.StrategyWBF]))
	}
	fmt.Fprintln(w, "\nFigure 4(c): communication cost vs number of patterns (fraction of naive; uplink + one dissemination)")
	fmt.Fprintf(w, "%10s %10s %10s %10s %14s\n", "patterns", "naive", "bf", "wbf", "naive-bytes")
	for _, p := range points {
		naive := float64(p.BytesUp[cluster.StrategyNaive] + p.BytesDissemination[cluster.StrategyNaive])
		bf := float64(p.BytesUp[cluster.StrategyBF] + p.BytesDissemination[cluster.StrategyBF])
		wbf := float64(p.BytesUp[cluster.StrategyWBF] + p.BytesDissemination[cluster.StrategyWBF])
		fmt.Fprintf(w, "%10d %10.3f %10.3f %10.3f %14.0f\n", p.Patterns, 1.0, bf/naive, wbf/naive, naive)
	}
	fmt.Fprintln(w, "\nFigure 4(d): center storage cost vs number of patterns (fraction of naive)")
	fmt.Fprintf(w, "%10s %10s %10s %10s %14s\n", "patterns", "naive", "bf", "wbf", "naive-bytes")
	for _, p := range points {
		naive := float64(p.CenterStorage[cluster.StrategyNaive])
		fmt.Fprintf(w, "%10d %10.3f %10.3f %10.3f %14.0f\n", p.Patterns, 1.0,
			float64(p.CenterStorage[cluster.StrategyBF])/naive,
			float64(p.CenterStorage[cluster.StrategyWBF])/naive, naive)
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
