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

// BenchmarkSummaryClone is the copy behind every coordinator-side delta
// update (summaryCache.noteIngest) of that station's digest.
func BenchmarkSummaryClone(b *testing.B) {
	s, err := Build(24, benchLocals())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(s.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = s.Clone()
	}
}
