package tree

import (
	"fmt"
	"math/rand"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
)

var planSink int

// BenchmarkPlanScanVsTree is the comparison that decided "one planner": the
// flat scan the coordinator runs against this package's descent, over the
// same leaf digests and the same probe, each planner timed in its own loop
// and therefore warm. (benchmark/'s tree.plan_us is taken once per query
// right after index.plan_us walked the same digests, so the tree alone runs
// warm there — run this instead.) evals/op is the Admits count per plan.
func BenchmarkPlanScanVsTree(b *testing.B) {
	const length = 24
	for _, size := range []struct{ stations, residents int }{{64, 3100}, {1024, 512}} {
		b.Run(fmt.Sprintf("%dx%d", size.stations, size.residents), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			sums := make([]*index.Summary, size.stations)
			tr := New(Options{})
			var target pattern.Pattern
			for s := range sums {
				locals := make([]pattern.Pattern, size.residents)
				for r := range locals {
					locals[r] = make(pattern.Pattern, length)
					for g := range locals[r] {
						locals[r][g] = 1 + rng.Int63n(1_000_000)
					}
				}
				sum, err := index.Build(length, locals)
				if err != nil {
					b.Fatal(err)
				}
				if err := tr.Add(uint32(s), sum); err != nil {
					b.Fatal(err)
				}
				sums[s] = sum
				target = locals[0] // any resident will do; the last station's first
			}
			probe, err := index.NewProbe(core.Query{ID: 1, Locals: []pattern.Pattern{target}}, 0, 1)
			if err != nil || !probe.Selective() {
				b.Fatalf("probe: selective %v, err %v", probe.Selective(), err)
			}
			probes := []index.Probe{probe}
			b.Run("scan", func(b *testing.B) {
				admitted := 0
				for i := 0; i < b.N; i++ {
					admitted = 0
					for _, sum := range sums {
						if sum.Admits(probe) {
							admitted++
						}
					}
				}
				planSink = admitted
				b.ReportMetric(float64(len(sums)), "evals/op")
			})
			b.Run("tree", func(b *testing.B) {
				evals := 0
				for i := 0; i < b.N; i++ {
					var hits []uint32
					hits, evals = tr.Route(probes)
					planSink = len(hits)
				}
				b.ReportMetric(float64(evals), "evals/op")
			})
		})
	}
}
