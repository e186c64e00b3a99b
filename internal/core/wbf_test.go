package core

import (
	"slices"
	"strings"
	"testing"

	"dimatch/internal/pattern"
)

func testParams() Params {
	return Params{
		Bits:    1 << 14,
		Hashes:  4,
		Samples: 3,
		Epsilon: 0,
		Seed:    7,
	}
}

// buildPaperFilter encodes the paper's running example: global {3,4,5} with
// locals {1,2,3} and {2,2,2}.
func buildPaperFilter(t *testing.T, p Params) *Filter {
	t.Helper()
	enc, err := NewEncoder(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}, {2, 2, 2}}}
	if err := enc.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	return enc.Filter()
}

func TestFilterWeightTable(t *testing.T) {
	f := buildPaperFilter(t, testParams())
	ws := f.Weights()
	if len(ws) != 3 {
		t.Fatalf("weight table has %d rows, want 3 (= 2^2 - 1 combinations)", len(ws))
	}
	// Numerators: {1,2,3} -> 6, {2,2,2} -> 6, both -> 12; denominator 12.
	byMask := make(map[pattern.Subset]WeightEntry, 3)
	for _, w := range ws {
		byMask[w.Mask] = w
		if w.Denominator != 12 {
			t.Fatalf("denominator = %d, want 12", w.Denominator)
		}
		if w.Query != 1 {
			t.Fatalf("query = %d, want 1", w.Query)
		}
	}
	if byMask[0b01].Numerator != 6 || byMask[0b10].Numerator != 6 || byMask[0b11].Numerator != 12 {
		t.Fatalf("numerators wrong: %+v", byMask)
	}
	if got := byMask[0b11].Value(); got != 1.0 {
		t.Fatalf("full combination weight = %v, want 1", got)
	}
	if got := byMask[0b01].Value(); got != 0.5 {
		t.Fatalf("local weight = %v, want 0.5", got)
	}
}

func TestFilterProbeKnownValues(t *testing.T) {
	f := buildPaperFilter(t, testParams())
	// Accumulated forms: {1,3,6}, {2,4,6}, {3,7,12}; with Samples=3 and
	// length 3 every position is sampled.
	ids, ok := f.probe(0, 1)
	if !ok || len(ids) == 0 {
		t.Fatal("accumulated value 1 at slot 0 should be present")
	}
	if _, ok := f.probe(0, 100); ok {
		t.Fatal("value 100 should be absent")
	}
}

func TestFilterZeroWeightCombinationSkipped(t *testing.T) {
	p := testParams()
	enc, err := NewEncoder(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Second local is all zeros: combinations {1} and {0,1} have equal
	// patterns; {1} alone has numerator 0 and must be skipped.
	q := Query{ID: 9, Locals: []pattern.Pattern{{1, 2}, {0, 0}}}
	if err := enc.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	for _, w := range enc.Filter().Weights() {
		if w.Numerator == 0 {
			t.Fatalf("zero-weight combination %s made it into the table", w.Mask)
		}
	}
}

// cloneParts copies a filter's serialized arrays, so a test can corrupt them
// without touching the filter (FromParts keeps what it is handed).
func cloneParts(f *Filter) (positions []uint32, weights []WeightEntry, offs []uint32, ids []WeightID, codes []uint32) {
	c, o, i := f.Lists()
	return slices.Clone(f.Positions()), slices.Clone(f.Weights()), slices.Clone(o), slices.Clone(i), slices.Clone(c)
}

func TestFilterRoundTripThroughParts(t *testing.T) {
	p := testParams()
	p.Epsilon = 1
	f := buildPaperFilter(t, p)
	positions, weights, offs, ids, codes := cloneParts(f)
	g, err := FromParts(p, f.Length(), positions, weights, offs, ids, codes)
	if err != nil {
		t.Fatal(err)
	}
	// The reconstructed filter must agree with the original on every probe
	// over a sweep covering present and absent values.
	for slot := 0; slot < 3; slot++ {
		for v := int64(0); v < 40; v++ {
			wa, oka := f.probe(slot, v)
			wb, okb := g.probe(slot, v)
			if oka != okb || !slices.Equal(wa, wb) {
				t.Fatalf("probe(%d,%d) diverged after round trip: %v,%v vs %v,%v", slot, v, wa, oka, wb, okb)
			}
		}
	}
	if g.Params() != f.Params() || g.SizeBytes() != f.SizeBytes() || g.FillRatio() != f.FillRatio() {
		t.Fatal("params, model size or fill ratio lost")
	}
}

// TestFromPartsRejectsCorruption is the constructor's rejection matrix: one
// case per property probing relies on.
func TestFromPartsRejectsCorruption(t *testing.T) {
	p := testParams()
	f := buildPaperFilter(t, p)
	// The paper filter's dictionary is [2] [0 1] [0] [1] [0 2]; pair is where
	// its first two-pointer list starts in the arena.
	pair := -1
	_, offs, _ := f.Lists()
	for d := 0; d+1 < len(offs) && pair < 0; d++ {
		if offs[d+1]-offs[d] >= 2 {
			pair = int(offs[d])
		}
	}
	if pair < 0 {
		t.Fatal("paper filter has no two-pointer list; the matrix needs one")
	}
	type parts struct {
		p       Params
		pos     []uint32
		weights []WeightEntry
		offs    []uint32
		ids     []WeightID
		codes   []uint32
	}
	tests := []struct {
		name   string
		want   string // the reason, as FromParts words it
		mutate func(x *parts)
	}{
		{"positions out of order", "does not ascend", func(x *parts) { x.pos[0], x.pos[1] = x.pos[1], x.pos[0] }},
		{"repeated position", "does not ascend", func(x *parts) { x.pos[1] = x.pos[0] }},
		{"bit set beyond Bits", "bits set beyond", func(x *parts) { x.p.Bits = uint64(x.pos[len(x.pos)-1]) }},
		{"slot count mismatch", "set bits but", func(x *parts) { x.codes = x.codes[:len(x.codes)-1] }},
		{"slot on unset bit", "set bits but", func(x *parts) { x.codes = append(x.codes, 0) }},
		{"set bit without a slot", "set bits but", func(x *parts) { x.pos = append(x.pos, uint32(x.p.Bits-1)) }},
		{"code beyond dictionary", "dictionary lists", func(x *parts) { x.codes[0] = uint32(len(x.offs) - 1) }},
		{"dangling pointer", "dangling weight pointer", func(x *parts) { x.ids[len(x.ids)-1] = 99 }},
		{"unsorted list", "unsorted pointer list", func(x *parts) { x.ids[pair], x.ids[pair+1] = x.ids[pair+1], x.ids[pair] }},
		{"repeated pointer", "unsorted pointer list", func(x *parts) { x.ids[pair+1] = x.ids[pair] }},
		{"empty list", "empty or overruns", func(x *parts) { x.offs[1] = x.offs[0] }},
		{"offsets overrun the arena", "empty or overruns", func(x *parts) { x.offs[1] = uint32(len(x.ids)) + 7 }},
		{"offsets stop short of the arena", "do not span", func(x *parts) { x.ids = append(x.ids, 0) }},
		{"offsets start past zero", "do not span", func(x *parts) { x.offs[0] = 1 }},
		{"no offsets", "do not span", func(x *parts) { x.offs = nil }},
		{"bits above MaxBits", "Params.Bits", func(x *parts) { x.p.Bits = MaxBits + 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := parts{p: p}
			x.pos, x.weights, x.offs, x.ids, x.codes = cloneParts(f)
			tt.mutate(&x)
			_, err := FromParts(x.p, f.Length(), x.pos, x.weights, x.offs, x.ids, x.codes)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("err = %v, want one naming %q", err, tt.want)
			}
		})
	}
	// The untouched arrays are accepted: the matrix fails on the mutations.
	positions, weights, offs, ids, codes := cloneParts(f)
	if _, err := FromParts(p, f.Length(), positions, weights, offs, ids, codes); err != nil {
		t.Fatalf("clean parts rejected: %v", err)
	}
}

func TestFilterSizeBytes(t *testing.T) {
	f := buildPaperFilter(t, testParams())
	if f.SizeBytes() <= f.Params().Bits/8 {
		t.Fatal("SizeBytes should exceed the raw bit array (slots + weights)")
	}
}

func TestWeightLookup(t *testing.T) {
	f := buildPaperFilter(t, testParams())
	w, err := f.Weight(0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Denominator != 12 {
		t.Fatalf("weight 0 = %+v", w)
	}
	if _, err := f.Weight(WeightID(len(f.Weights()))); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestIntersectSorted(t *testing.T) {
	tests := []struct {
		name string
		a, b []WeightID
		want []WeightID
	}{
		{name: "disjoint", a: []WeightID{1, 3}, b: []WeightID{2, 4}, want: []WeightID{}},
		{name: "subset", a: []WeightID{1, 2, 3}, b: []WeightID{2}, want: []WeightID{2}},
		{name: "identical", a: []WeightID{5, 9}, b: []WeightID{5, 9}, want: []WeightID{5, 9}},
		{name: "empty a", a: nil, b: []WeightID{1}, want: []WeightID{}},
		{name: "interleaved", a: []WeightID{1, 4, 6, 9}, b: []WeightID{0, 4, 9, 12}, want: []WeightID{4, 9}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := intersectSorted(append([]WeightID(nil), tt.a...), tt.b)
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("got %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestNewFilterValidation(t *testing.T) {
	if _, err := newFilter(Params{}, 3); err == nil {
		t.Fatal("expected invalid params error")
	}
	if _, err := newFilter(testParams(), 0); err == nil {
		t.Fatal("expected invalid length error")
	}
}
