// Benchmarks timing the three strategies end to end on a Figure-4 style
// workload, and Algorithms 1 and 2 in isolation. The paper's tables and
// figures themselves are regenerated by cmd/di-bench (experiment index: the
// package comment of dimatch/internal/bench).
package dimatch

import (
	"context"
	"testing"

	"dimatch/internal/core"
)

// figure4Cluster builds the Figure-4 style workload once for the
// per-strategy timing benchmarks below (Figure 4b's individual curves).
func figure4Cluster(b *testing.B, persons int) (*Cluster, []Query) {
	b.Helper()
	cfg := DefaultCityConfig()
	cfg.Persons = persons
	cfg.Days = 7
	cfg.Noise = 0
	cfg.VolumeLevels = 17
	cfg.CategoryWeights = []float64{0.04, 0.192, 0.192, 0.192, 0.192, 0.192}
	city, err := GenerateCity(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCluster(Options{
		Params:   Params{Bits: 1 << 15, Hashes: 5, Samples: DefaultSamples, Seed: 1},
		MinScore: 0.999,
	}, city.Length(), Members(StationData(city))...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := c.Shutdown(); err != nil {
			b.Error(err)
		}
	})
	var queries []Query
	id := QueryID(1)
	for _, cat := range Categories() {
		for _, p := range city.PersonsInCategory(cat) {
			if cat == OfficeWorker && len(queries) < 20 {
				queries = append(queries, QueryFromPerson(city, id, PersonID(p)))
				id++
			}
		}
	}
	if len(queries) == 0 {
		b.Fatal("no queries")
	}
	return c, queries
}

// BenchmarkSearchNaive times the naive strategy end to end (Figure 4b).
func BenchmarkSearchNaive(b *testing.B) {
	c, queries := figure4Cluster(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Search(context.Background(), queries, WithStrategy(StrategyNaive)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchBF times the Bloom-filter baseline end to end (Figure 4b).
func BenchmarkSearchBF(b *testing.B) {
	c, queries := figure4Cluster(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Search(context.Background(), queries, WithStrategy(StrategyBF)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchWBF times full DI-matching end to end (Figure 4b).
func BenchmarkSearchWBF(b *testing.B) {
	c, queries := figure4Cluster(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Search(context.Background(), queries, WithStrategy(StrategyWBF)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncoderAddQuery isolates Algorithm 1 (query encoding).
func BenchmarkEncoderAddQuery(b *testing.B) {
	locals := []Pattern{
		{0, 2, 4, 10, 0, 2, 4, 9},
		{0, 0, 3, 2, 0, 0, 3, 2},
		{0, 11, 16, 0, 0, 10, 15, 0},
	}
	params := core.Params{Bits: 1 << 20, Hashes: 5, Samples: 8, Epsilon: 1, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := core.NewEncoder(params, 8)
		if err != nil {
			b.Fatal(err)
		}
		if err := enc.AddQuery(core.Query{ID: 1, Locals: locals}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatcherMatch isolates Algorithm 2 (station-side probing).
func BenchmarkMatcherMatch(b *testing.B) {
	locals := []Pattern{
		{0, 2, 4, 10, 0, 2, 4, 9},
		{0, 0, 3, 2, 0, 0, 3, 2},
		{0, 11, 16, 0, 0, 10, 15, 0},
	}
	params := core.Params{Bits: 1 << 20, Hashes: 5, Samples: 8, Epsilon: 1, Seed: 1}
	enc, err := core.NewEncoder(params, 8)
	if err != nil {
		b.Fatal(err)
	}
	if err := enc.AddQuery(core.Query{ID: 1, Locals: locals}); err != nil {
		b.Fatal(err)
	}
	m := core.NewMatcher(enc.Filter())
	candidate := Pattern{0, 13, 23, 12, 0, 12, 22, 11}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Match(candidate); err != nil {
			b.Fatal(err)
		}
	}
}
