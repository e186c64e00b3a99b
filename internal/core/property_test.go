package core_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/wire"
)

// refFilter is the WBF as the paper draws it and as core.Filter used to hold
// it: a pointer list per set bit, in a map. It replays Algorithms 1 and 2
// over the real filter's hash positions, sample indexes and weight table and
// shares nothing else with it.
type refFilter struct {
	f     *core.Filter
	slots map[uint64][]core.WeightID
}

func newRefFilter(t *testing.T, f *core.Filter, eps int64, queries []core.Query) refFilter {
	t.Helper()
	ref := refFilter{f: f, slots: make(map[uint64][]core.WeightID)}
	id := core.WeightID(0)
	for _, q := range queries {
		err := q.EachCombination(func(mask pattern.Subset, _ int64, combined pattern.Pattern) error {
			if w := f.Weights()[id]; w.Query != q.ID || w.Mask != mask {
				t.Fatalf("weight row %d is query %d mask %v; the reference is at query %d mask %v", id, w.Query, w.Mask, q.ID, mask)
			}
			acc := combined.Accumulate()
			for slot, g := range f.SampleIndexes() {
				tol := eps * int64(g+1) // the scaled band, restated
				for v := max(acc[g]-tol, 0); v <= acc[g]+tol; v++ {
					for _, bit := range f.Indexes(slot, v) {
						if list := ref.slots[bit]; len(list) == 0 || list[len(list)-1] != id {
							ref.slots[bit] = append(list, id)
						}
					}
				}
			}
			id++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if int(id) != len(f.Weights()) {
		t.Fatalf("%d weight rows, the reference counts %d combinations", len(f.Weights()), id)
	}
	return ref
}

// sizeBytes is the cost model as it was computed from the map.
func (r refFilter) sizeBytes() uint64 {
	size := (r.f.Params().Bits + 63) / 64 * 8
	for _, list := range r.slots {
		size += 12 + 4*uint64(len(list))
	}
	return size + 16*uint64(len(r.f.Weights()))
}

func intersect(a, b []core.WeightID) []core.WeightID {
	var out []core.WeightID
	for _, id := range a {
		if slices.Contains(b, id) {
			out = append(out, id)
		}
	}
	return out
}

func (r refFilter) matchResidents(t *testing.T, persons []core.PersonID, locals []pattern.Pattern) []core.Report {
	t.Helper()
	var out []core.Report
	for i, local := range locals {
		acc := local.Accumulate()
		var surviving []core.WeightID
		for slot, g := range r.f.SampleIndexes() {
			for j, bit := range r.f.Indexes(slot, acc[g]) {
				if list := r.slots[bit]; slot == 0 && j == 0 {
					surviving = list
				} else {
					surviving = intersect(surviving, list)
				}
			}
		}
		if len(surviving) == 0 {
			continue
		}
		selected, err := core.SelectClosestWeights(nil, r.f, surviving, local.Sum())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, core.Report{Person: persons[i], WeightIDs: selected})
	}
	return out
}

// bitLists returns a filter's set bits, each with the pointer list it
// carries, from its sparse arrays.
func bitLists(f *core.Filter) map[uint64][]core.WeightID {
	codes, offs, ids := f.Lists()
	out := make(map[uint64][]core.WeightID, len(codes))
	for i, pos := range f.Positions() {
		out[uint64(pos)] = ids[offs[codes[i]]:offs[codes[i]+1]]
	}
	return out
}

// TestFilterMatchesMapPerBitReference: over random batches, the encoder's
// filter, that filter after a trip over the wire and the map-per-bit
// reference set the same bits with the same pointer lists, and a station gets
// the same reports from all three; and SizeBytes, computed from the sparse
// arrays, is still the list-per-bit cost model. Filters are auto-sized (one
// hash, sparse) or, one round in three, explicitly sized with up to four
// hashes and often crowded, where the Rice parameter bottoms out at 0.
func TestFilterMatchesMapPerBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 60; round++ {
		length := 4 + rng.Intn(9)
		eps := []int64{0, 1, 3}[rng.Intn(3)]
		base := core.Params{Epsilon: eps, Samples: 1 + rng.Intn(length), Seed: rng.Uint64(), PositionSalted: rng.Intn(2) == 0}
		random := func() pattern.Pattern {
			p := make(pattern.Pattern, length)
			for i := range p {
				p[i] = rng.Int63n(6)
			}
			p[rng.Intn(length)]++ // never all zero
			return p
		}

		queries := make([]core.Query, 1+rng.Intn(16))
		var locals []pattern.Pattern
		for i := range queries {
			queries[i] = core.Query{ID: core.QueryID(i*3 + 1)}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				queries[i].Locals = append(queries[i].Locals, random())
			}
			// Residents: every combination, once exact and once nudged by up
			// to ε per interval, and a stranger.
			err := queries[i].EachCombination(func(_ pattern.Subset, _ int64, combined pattern.Pattern) error {
				nudged := slices.Clone(combined)
				for j := range nudged {
					nudged[j] = max(nudged[j]+rng.Int63n(2*eps+1)-eps, 0)
				}
				locals = append(locals, combined, nudged, random())
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		persons := make([]core.PersonID, len(locals))
		for i := range persons {
			persons[i] = core.PersonID(10 + 7*i)
		}

		// A crowded filter (30 % target) makes bits carry long lists and
		// probes end in empty intersections; a roomy one is the usual case.
		params, err := core.SizedParams(base, length, queries, []float64{0.01, 0.3}[rng.Intn(2)])
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			params.Bits, params.Hashes = 1+uint64(rng.Intn(int(params.Bits))), 1+rng.Intn(4)
		}
		enc, err := core.NewEncoder(params, length)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]core.QueryID, len(queries))
		for i, q := range queries {
			if err := enc.AddQuery(q); err != nil {
				t.Fatal(err)
			}
			ids[i] = q.ID
		}
		f := enc.Filter()

		ref := newRefFilter(t, f, eps, queries)
		if got := bitLists(f); !reflect.DeepEqual(got, ref.slots) {
			t.Fatalf("round %d: the filter sets\n%v\nthe reference\n%v", round, got, ref.slots)
		}
		if got, want := f.SizeBytes(), ref.sizeBytes(); got != want {
			t.Fatalf("round %d: SizeBytes %d, the list-per-bit model gives %d", round, got, want)
		}
		want := ref.matchResidents(t, persons, locals)
		if len(want) < len(locals)/3 {
			t.Fatalf("round %d: only %d of %d residents match the reference; the exact combinations alone should", round, len(want), len(locals))
		}
		got, err := core.MatchResidents(f, persons, locals, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (ε=%d, %d queries, salted %v): encoder's filter reports\n%v\nthe reference\n%v", round, eps, len(queries), base.PositionSalted, got, want)
		}

		m, err := wire.EncodeBatchQuery(wire.BatchQuery{Queries: ids, Filter: f})
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.Decode(m.Encode())
		if err != nil {
			t.Fatal(err)
		}
		bq, err := wire.DecodeBatchQuery(frame)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := bitLists(bq.Filter); !reflect.DeepEqual(got, ref.slots) {
			t.Fatalf("round %d: after the wire the filter sets\n%v\nthe reference\n%v", round, got, ref.slots)
		}
		if bq.Filter.SizeBytes() != f.SizeBytes() {
			t.Fatalf("round %d: SizeBytes %d after the wire, %d before", round, bq.Filter.SizeBytes(), f.SizeBytes())
		}
		shipped, err := core.MatchResidents(bq.Filter, persons, locals, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shipped, want) {
			t.Fatalf("round %d: the filter reports differently after the wire:\n%v\nwant\n%v", round, shipped, want)
		}
	}
}
