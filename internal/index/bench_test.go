package index

import (
	"math/rand"
	"testing"

	"dimatch/internal/pattern"
)

// benchLocals draws a station's resident rows: 25 000 length-24 patterns,
// what one of 16 stations holds after a 200 000-person load at R = 2.
func benchLocals() []pattern.Pattern {
	rng := rand.New(rand.NewSource(1))
	locals := make([]pattern.Pattern, 25_000)
	for i := range locals {
		locals[i] = randPattern(rng, 24, 50)
		locals[i][0]++
	}
	return locals
}

// BenchmarkSummaryBuild is a station answering its first summary pull:
// index.Build over 25 000 residents of length 24.
func BenchmarkSummaryBuild(b *testing.B) {
	locals := benchLocals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(24, locals); err != nil {
			b.Fatal(err)
		}
	}
}

// addBatchFixture is a station's digest over benchLocals and one stream
// flush of 227 fresh length-24 rows, the batch the coordinator adds to its
// cached copy of that digest (summaryCache.handOver).
func addBatchFixture(tb testing.TB) (*Summary, []pattern.Pattern) {
	tb.Helper()
	s, err := Build(24, benchLocals())
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	batch := make([]pattern.Pattern, 227)
	for i := range batch {
		batch[i] = randPattern(rng, 24, 50)
		batch[i][0]++
	}
	return s, batch
}

// BenchmarkSummaryAddBatch is the coordinator-side delta update of that
// station's digest: one flush's rows added in place.
func BenchmarkSummaryAddBatch(b *testing.B) {
	s, batch := addBatchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range batch {
			if err := s.Add(l); err != nil {
				b.Fatal(err)
			}
		}
	}
}
