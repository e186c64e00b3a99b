package bench

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"dimatch"
)

func TestFigure1aShape(t *testing.T) {
	series, err := Figure1a(Figure1aConfig{Persons: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("%d series, want 6 categories", len(series))
	}
	for _, s := range series {
		if len(s.Y) != 8 {
			t.Fatalf("series %s has %d points, want 8 (2 days x 4)", s.Label, len(s.Y))
		}
		// Periodicity: the two weekday halves are close.
		for i := 0; i < 4; i++ {
			if d := s.Y[i] - s.Y[4+i]; d > 0.6 || d < -0.6 {
				t.Fatalf("series %s not periodic at %d: %v vs %v", s.Label, i, s.Y[i], s.Y[4+i])
			}
		}
	}
	var buf bytes.Buffer
	RenderFigure1a(&buf, series)
	if !strings.Contains(buf.String(), "Figure 1(a)") {
		t.Fatal("render missing title")
	}
}

func TestFigure3Divisible(t *testing.T) {
	series, err := Figure3(Figure1aConfig{Persons: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("%d series", len(series))
	}
	// Accumulated curves are non-decreasing and end at distinct values.
	finals := make(map[string]float64, 6)
	for _, s := range series {
		prev := -1.0
		for _, y := range s.Y {
			if y < prev {
				t.Fatalf("series %s not monotone", s.Label)
			}
			prev = y
		}
		finals[s.Label] = s.Y[len(s.Y)-1]
	}
	for a, va := range finals {
		for b, vb := range finals {
			if a < b {
				if d := va - vb; d < 5 && d > -5 {
					t.Fatalf("categories %s and %s end too close: %v vs %v", a, b, va, vb)
				}
			}
		}
	}
	var buf bytes.Buffer
	RenderFigure3(&buf, series)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Fatal("render missing title")
	}
}

func TestFigure1bStatistic(t *testing.T) {
	r, err := Figure1b(Figure1bConfig{Persons: 90})
	if err != nil {
		t.Fatal(err)
	}
	if r.Pairs == 0 {
		t.Fatal("no pairs evaluated")
	}
	if r.FractionAtLeastOne < 0.9 {
		t.Fatalf("P(>=1 similar local) = %.2f, paper observes > 0.9", r.FractionAtLeastOne)
	}
	last := r.CDF[len(r.CDF)-1]
	if last.P < 0.999 {
		t.Fatalf("CDF does not reach 1: %v", r.CDF)
	}
	var buf bytes.Buffer
	RenderFigure1b(&buf, r)
	if !strings.Contains(buf.String(), "Figure 1(b)") {
		t.Fatal("render missing title")
	}
}

func TestConvergenceShape(t *testing.T) {
	points, err := Convergence(context.Background(), ConvergenceConfig{
		Groups:       2,
		SampleCounts: []int{2, 8, 12},
		Persons:      60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	// Accuracy at the paper's stable b=12 must be at least as good as at
	// b=2 for every group, and high in absolute terms.
	for gi := range points[0].Accuracy {
		if points[2].Accuracy[gi] < points[0].Accuracy[gi]-0.05 {
			t.Fatalf("group %d: accuracy fell from b=2 (%v) to b=12 (%v)",
				gi, points[0].Accuracy[gi], points[2].Accuracy[gi])
		}
	}
	if points[2].Accuracy[0] < 0.85 {
		t.Fatalf("stable-b accuracy %.2f too low", points[2].Accuracy[0])
	}
	// The groups are independent cities, so some b tells them apart.
	if !slices.ContainsFunc(points, func(p ConvergencePoint) bool { return p.Spread() > 0 }) {
		t.Fatalf("every group scored alike at every b, as one city would: %+v", points)
	}
	var buf bytes.Buffer
	RenderConvergence(&buf, points)
	if !strings.Contains(buf.String(), "Convergence") {
		t.Fatal("render missing title")
	}
}

// TestFigure4SmallSweep runs the sweep at toy scale. Figure4 fails when a
// repeated search ships other bytes or returns another answer than the
// first, so a pass also holds every repeat to the first search's values.
func TestFigure4SmallSweep(t *testing.T) {
	points, err := Figure4(context.Background(), Figure4Config{
		Persons:       1500,
		Stations:      36,
		PatternCounts: []int{5, 30},
		QueriesScored: 5,
		FilterBits:    1 << 17, // small so the BF degrades within the mini sweep
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	first, last := points[0], points[1]

	// 4(a): naive precision is 1; WBF stays close; BF degrades as the
	// fixed filter fills.
	for _, p := range points {
		if p.Precision[dimatch.StrategyNaive] < 0.999 {
			t.Fatalf("naive precision %.3f != 1", p.Precision[dimatch.StrategyNaive])
		}
		if p.Precision[dimatch.StrategyWBF] < 0.9 {
			t.Fatalf("WBF precision %.3f below 0.9 at a=%d", p.Precision[dimatch.StrategyWBF], p.Patterns)
		}
	}
	if last.FilterFill <= first.FilterFill {
		t.Fatal("filter fill did not grow with patterns")
	}
	if last.Precision[dimatch.StrategyBF] >= first.Precision[dimatch.StrategyBF] &&
		last.Precision[dimatch.StrategyBF] > 0.5 {
		t.Fatalf("BF did not degrade: %.3f -> %.3f",
			first.Precision[dimatch.StrategyBF], last.Precision[dimatch.StrategyBF])
	}
	if last.Precision[dimatch.StrategyWBF] <= last.Precision[dimatch.StrategyBF] {
		t.Fatal("WBF should beat BF at high load")
	}

	// 4(c): WBF uplink well below naive's shipment at every point.
	for _, p := range points {
		if p.BytesUp[dimatch.StrategyWBF]*2 > p.BytesUp[dimatch.StrategyNaive] {
			t.Fatalf("a=%d: WBF uplink %d not well below naive %d",
				p.Patterns, p.BytesUp[dimatch.StrategyWBF], p.BytesUp[dimatch.StrategyNaive])
		}
	}

	// 4(d): naive center storage constant in a; WBF storage grows with the
	// query load, not the data.
	if float64(last.CenterStorage[dimatch.StrategyNaive]) > 1.2*float64(first.CenterStorage[dimatch.StrategyNaive]) {
		t.Fatal("naive storage should not grow with patterns")
	}

	var buf bytes.Buffer
	RenderFigure4(&buf, points)
	for _, want := range []string{"Figure 4(a)", "Figure 4(b)", "Figure 4(c)", "Figure 4(d)"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %s", want)
		}
	}
}

func TestTableIISmall(t *testing.T) {
	rows, err := TableII(context.Background(), TableIIConfig{Persons: 120, Days: 2, QueriesPerDay: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Precision < 0.9 || r.Recall < 0.9 {
			t.Fatalf("row %s below paper's band: %+v", r.Day, r)
		}
	}
	var buf bytes.Buffer
	RenderTableII(&buf, rows)
	if !strings.Contains(buf.String(), "Table II") {
		t.Fatal("render missing title")
	}
}

func TestAblationSalting(t *testing.T) {
	rows, err := AblationSalting(context.Background(), AblationConfig{Persons: 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	salted, unsalted := rows[0], rows[1]
	// The D1 caveat made measurable: at ε=1 the salted variant must beat
	// the unsalted one on precision.
	if salted.Precision <= unsalted.Precision {
		t.Fatalf("salting did not help: %.3f vs %.3f", salted.Precision, unsalted.Precision)
	}
	var buf bytes.Buffer
	RenderAblation(&buf, "salting", rows)
	if !strings.Contains(buf.String(), "salted") {
		t.Fatal("render missing rows")
	}
}

func TestResilienceDegradesGracefully(t *testing.T) {
	rows, err := Resilience(context.Background(), AblationConfig{Persons: 120}, []int{0, 8, 24}, dimatch.StrategyWBF)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].StationsKilled != 0 || rows[0].Recall < 0.9 {
		t.Fatalf("healthy baseline off: %+v", rows[0])
	}
	// Recall decays as stations die; it never goes back up.
	for i := 1; i < len(rows); i++ {
		if rows[i].Recall > rows[i-1].Recall+1e-9 {
			t.Fatalf("recall rose after killing stations: %+v", rows)
		}
	}
	if last := rows[len(rows)-1]; last.Recall >= rows[0].Recall {
		t.Fatalf("killing %d stations did not reduce recall: %+v", last.StationsKilled, rows)
	}
	var buf bytes.Buffer
	RenderResilience(&buf, rows)
	if !strings.Contains(buf.String(), "Failure injection") {
		t.Fatal("render missing title")
	}
}

func TestSizingSweep(t *testing.T) {
	rows, err := SizingSweep(context.Background(), AblationConfig{Persons: 120}, []uint64{1 << 13, 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	small, big := rows[0], rows[1]
	if small.Fill <= big.Fill {
		t.Fatal("smaller filter should be fuller")
	}
	if small.AnalyticFP <= big.AnalyticFP {
		t.Fatal("smaller filter should have higher FP rate")
	}
	// Measured value-level FP tracks the analytic estimate.
	for _, r := range rows {
		if r.MeasuredFP > r.AnalyticFP*1.5+0.01 {
			t.Fatalf("measured FP %v far above analytic %v at m=%d", r.MeasuredFP, r.AnalyticFP, r.Bits)
		}
	}
	var buf bytes.Buffer
	RenderSizing(&buf, rows)
	if !strings.Contains(buf.String(), "sizing") {
		t.Fatal("render missing title")
	}
}

// TestStudiesShareOneRun: at one AblationConfig, Resilience with no station
// killed, AblationSalting's salted row and SizingSweep at the default 2^18
// bits each search the same city with the same pipeline and references, so
// they must agree.
func TestStudiesShareOneRun(t *testing.T) {
	ctx := context.Background()
	cfg := AblationConfig{Persons: 120}
	res, err := Resilience(ctx, cfg, []int{0}, dimatch.StrategyWBF)
	if err != nil {
		t.Fatal(err)
	}
	salting, err := AblationSalting(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizing, err := SizingSweep(ctx, cfg, []uint64{1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	healthy, salted := res[0], salting[0]
	if healthy.Precision != salted.Precision || healthy.Recall != salted.Recall || healthy.F1 != salted.F1 {
		t.Fatalf("resilience at 0 killed %+v, salted ablation %+v: want equal precision, recall and F1", healthy, salted)
	}
	if sizing[0].Precision != salted.Precision {
		t.Fatalf("sizing at 2^18 bits has precision %v, salted ablation %v", sizing[0].Precision, salted.Precision)
	}
}
