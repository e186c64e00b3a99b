package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", s.Len())
	}
	if s.Count() != 0 {
		t.Fatalf("Count() = %d, want 0", s.Count())
	}
	for i := uint64(0); i < 100; i++ {
		if s.Test(i) {
			t.Fatalf("bit %d set in a fresh set", i)
		}
	}
}

func TestSetAndTest(t *testing.T) {
	s := New(130) // spans three words
	indices := []uint64{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range indices {
		s.Set(i)
	}
	for _, i := range indices {
		if !s.Test(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if got := s.Count(); got != uint64(len(indices)) {
		t.Fatalf("Count() = %d, want %d", got, len(indices))
	}
	// Idempotent.
	s.Set(63)
	if got := s.Count(); got != uint64(len(indices)) {
		t.Fatalf("Count() after duplicate Set = %d, want %d", got, len(indices))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"set":  func() { s.Set(10) },
		"test": func() { s.Test(10) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestFillRatio(t *testing.T) {
	s := New(64)
	if s.FillRatio() != 0 {
		t.Fatalf("FillRatio of empty set = %v", s.FillRatio())
	}
	for i := uint64(0); i < 16; i++ {
		s.Set(i)
	}
	if got := s.FillRatio(); got != 0.25 {
		t.Fatalf("FillRatio = %v, want 0.25", got)
	}
	var empty Set
	if empty.FillRatio() != 0 {
		t.Fatal("FillRatio of zero-length set should be 0")
	}
}

func TestWordsRoundTrip(t *testing.T) {
	s := New(100)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		s.Set(uint64(rng.Intn(100)))
	}
	restored, err := FromWords(s.Words(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(restored) {
		t.Fatal("round-tripped set differs")
	}
}

func TestFromWordsValidation(t *testing.T) {
	tests := []struct {
		name  string
		words []uint64
		n     uint64
	}{
		{name: "too few words", words: []uint64{0}, n: 100},
		{name: "too many words", words: []uint64{0, 0, 0}, n: 100},
		{name: "stray bits past length", words: []uint64{1 << 10}, n: 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FromWords(tt.words, tt.n); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestFromWordsCopies(t *testing.T) {
	words := []uint64{0}
	s, err := FromWords(words, 64)
	if err != nil {
		t.Fatal(err)
	}
	words[0] = ^uint64(0) // mutate the caller slice
	if s.Count() != 0 {
		t.Fatal("FromWords did not copy the input slice")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(64), New(64)
	a.Set(3)
	if a.Equal(b) {
		t.Fatal("sets with different bits reported equal")
	}
	b.Set(3)
	if !a.Equal(b) {
		t.Fatal("identical sets reported unequal")
	}
	if a.Equal(New(65)) {
		t.Fatal("sets of different length reported equal")
	}
}

func TestUnionWith(t *testing.T) {
	a, b := New(128), New(128)
	a.Set(1)
	b.Set(127)
	if err := a.UnionWith(b); err != nil {
		t.Fatal(err)
	}
	if !a.Test(1) || !a.Test(127) {
		t.Fatal("union missing bits")
	}
	if err := a.UnionWith(New(64)); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestSizeBytes(t *testing.T) {
	if got := New(1).SizeBytes(); got != 8 {
		t.Fatalf("SizeBytes(1 bit) = %d, want 8", got)
	}
	if got := New(64).SizeBytes(); got != 8 {
		t.Fatalf("SizeBytes(64 bits) = %d, want 8", got)
	}
	if got := New(65).SizeBytes(); got != 16 {
		t.Fatalf("SizeBytes(65 bits) = %d, want 16", got)
	}
}

func TestPropertyCountMatchesSetBits(t *testing.T) {
	// Count equals the cardinality of the distinct indices set.
	f := func(raw []uint16) bool {
		s := New(1 << 16)
		distinct := make(map[uint64]bool, len(raw))
		for _, r := range raw {
			i := uint64(r)
			s.Set(i)
			distinct[i] = true
		}
		return s.Count() == uint64(len(distinct))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWordsRoundTrip(t *testing.T) {
	f := func(raw []uint16, lenSeed uint16) bool {
		n := uint64(lenSeed)%(1<<16-1) + 1
		s := New(n)
		for _, r := range raw {
			s.Set(uint64(r) % n)
		}
		restored, err := FromWords(s.Words(), n)
		return err == nil && s.Equal(restored)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUnrollTailSizes crosses the 4-wide unroll boundary in UnionWith and
// Count: every length from 1 through 10 words exercises the unrolled body,
// the scalar tail, or both, and must agree with a bit-by-bit reference.
func TestUnrollTailSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for words := 1; words <= 10; words++ {
		n := uint64(words * 64)
		a, b := New(n), New(n)
		ref := map[uint64]bool{}
		for k := 0; k < words*24; k++ {
			i, j := rng.Uint64()%n, rng.Uint64()%n
			a.Set(i)
			b.Set(j)
			ref[i] = true
			ref[j] = true
		}
		if err := a.UnionWith(b); err != nil {
			t.Fatal(err)
		}
		if a.Count() != uint64(len(ref)) {
			t.Fatalf("%d words: Count = %d, want %d", words, a.Count(), len(ref))
		}
		for i := range ref {
			if !a.Test(i) {
				t.Fatalf("%d words: union lost bit %d", words, i)
			}
		}
	}
}

func BenchmarkUnionWith(b *testing.B) {
	dst, src := New(1<<16), New(1<<16)
	for i := uint64(0); i < src.Len(); i += 3 {
		src.Set(i)
	}
	b.SetBytes(int64(src.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.UnionWith(src); err != nil {
			b.Fatal(err)
		}
	}
}

var benchCountSink uint64

func BenchmarkCount(b *testing.B) {
	s := New(1 << 16)
	for i := uint64(0); i < s.Len(); i += 3 {
		s.Set(i)
	}
	b.SetBytes(int64(s.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCountSink = s.Count()
	}
}
