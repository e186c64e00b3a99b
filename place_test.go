package dimatch

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dimatch/internal/placement"
	"dimatch/internal/wire"
)

// TestPlaceMatchesPickModel is Place's seeded property test. Over 4–9
// stations, one of them sometimes dead, rounds of random batches — fresh
// persons, persons placed earlier with new content, all-zero rows — are
// placed at r ∈ {1, 2, 3, ≥ stations} while the ingest exchange of random
// stations is made to fail. After every round each alive station must hold
// exactly the copies a model derives from placement.Pick over the alive
// stations, the persons that reached no station must come back as unplaced,
// ascending, with their earlier intent restored, and the placement table
// must hold every other person's factor and content hash.
func TestPlaceMatchesPickModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { placeModelTrial(t, seed) })
	}
}

// placeModelTrial runs one seeded trial.
func placeModelTrial(t *testing.T, seed int64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	const length = 4
	randPattern := func() Pattern {
		pat := make(Pattern, length)
		for i := range pat {
			pat[i] = rng.Int63n(1000)
		}
		pat[rng.Intn(length)]++
		return pat
	}

	n := 4 + rng.Intn(6)
	links := make(map[uint32]*failOnceLink)
	var members []Member
	for id := uint32(1); id <= uint32(n); id++ {
		m, l, _ := linkStation(t, "", id, nil)
		links[id] = l
		members = append(members, m)
	}
	c, err := NewCluster(placedOptions(), length, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	if rng.Intn(3) == 0 {
		if err := c.KillStation(uint32(1 + rng.Intn(n))); err != nil {
			t.Fatal(err)
		}
	}
	alive, _ := c.aliveMembers()

	holds := make(map[uint32]map[PersonID]Pattern)
	for _, sid := range alive {
		holds[sid] = make(map[PersonID]Pattern)
	}
	intents := make(map[PersonID]placement.Entry)
	next := PersonID(1)
	for round := 0; round < 6; round++ {
		r := []int{1, 2, 3, n + rng.Intn(2)}[rng.Intn(4)]
		size := 20 + rng.Intn(200)
		batch := make(map[PersonID]Pattern, size)
		earlier := make([]PersonID, 0, len(intents))
		for p := range intents {
			earlier = append(earlier, p)
		}
		slices.Sort(earlier)
		for len(batch) < size {
			p := next
			if len(earlier) > 0 && rng.Intn(3) == 0 {
				p = earlier[rng.Intn(len(earlier))]
			} else {
				next++
			}
			if rng.Intn(10) == 0 {
				batch[p] = make(Pattern, length)
			} else {
				batch[p] = randPattern()
			}
		}
		armed := make(map[uint32]bool)
		for _, sid := range alive {
			if rng.Intn(5) == 0 {
				armed[sid] = true
				links[sid].arm(wire.KindIngest)
			}
		}

		unplaced, err := c.place(ctx, batch, WithReplication(r))
		for _, l := range links {
			l.disarm()
		}

		var wantUnplaced []PersonID
		failing := false
		for _, p := range sortedKeys(batch) {
			pat := batch[p]
			if pat.Sum() == 0 {
				continue
			}
			landed := false
			for _, sid := range placement.Pick(p, alive, r) {
				if armed[sid] {
					failing = true
					continue
				}
				holds[sid][p] = pat
				landed = true
			}
			if landed {
				intents[p] = placement.Entry{Factor: r, Hash: placement.ContentHash(pat)}
			} else {
				wantUnplaced = append(wantUnplaced, p)
			}
		}
		label := fmt.Sprintf("round %d (r=%d, %d stations, %d alive, armed %v)", round, r, n, len(alive), armed)
		if (err != nil) != failing {
			t.Fatalf("%s: err = %v, want an error exactly when an armed station was a target (%v)", label, err, failing)
		}
		if !slices.Equal(unplaced, wantUnplaced) {
			t.Fatalf("%s: unplaced %v, want %v", label, unplaced, wantUnplaced)
		}
		if got := c.Placed(); got != len(intents) {
			t.Fatalf("%s: Placed() = %d, want %d", label, got, len(intents))
		}
		tab := c.placementTable(0)
		for p, want := range intents {
			if got, ok := tab.Get(p); !ok || got != want {
				t.Fatalf("%s: person %d intent %+v (recorded %v), want %+v", label, p, got, ok, want)
			}
		}
		for sid, want := range stationHoldings(t, c) {
			if !maps.EqualFunc(want, holds[sid], slices.Equal[Pattern]) {
				t.Fatalf("%s: station %d holds %d residents, the model %d", label, sid, len(want), len(holds[sid]))
			}
		}
	}
}

// stationHoldings pulls every alive station's whole resident store.
func stationHoldings(t *testing.T, c *Cluster) map[uint32]map[PersonID]Pattern {
	t.Helper()
	ids, muxes := c.aliveMembers()
	out := make(map[uint32]map[PersonID]Pattern, len(ids))
	for i, sid := range ids {
		reply, err := muxes[i].Roundtrip(context.Background(), wire.Message{Kind: wire.KindDump, Payload: wire.EncodePersons(nil)})
		if err != nil {
			t.Fatalf("dump station %d: %v", sid, err)
		}
		persons, locals, err := decodeDumpReply(reply)
		if err != nil {
			t.Fatalf("dump station %d: %v", sid, err)
		}
		got := make(map[PersonID]Pattern, len(persons))
		for j, p := range persons {
			got[p] = locals[j]
		}
		out[sid] = got
	}
	return out
}

// TestDumpReplyDecodeRefusesOtherKinds: the coordinator reads pulled rows
// only from a KindDumpReply; the same bytes under any other kind are refused.
func TestDumpReplyDecodeRefusesOtherKinds(t *testing.T) {
	payload, err := wire.EncodeRows(nil, []PersonID{4}, []Pattern{{1, 2, 3}}, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	persons, locals, err := decodeDumpReply(wire.Message{Kind: wire.KindDumpReply, Payload: payload})
	if err != nil || !slices.Equal(persons, []PersonID{4}) || !locals[0].Equal(Pattern{1, 2, 3}) {
		t.Fatalf("dump reply decoded %v %v, %v", persons, locals, err)
	}
	for _, k := range []wire.Kind{wire.KindIngest, wire.KindDump, wire.KindStatsReply, wire.KindBatchReply} {
		if _, _, err := decodeDumpReply(wire.Message{Kind: k, Payload: payload}); err == nil {
			t.Fatalf("rows under %v decoded as a dump reply", k)
		}
	}
}

// TestPlaceSplitMatchesOneWorker pins Place's split pass to its one-worker
// form: 20 483 persons over 9 stations, every thirteenth pattern all-zero
// and int32-edge cells spread over the whole range, planned on one worker
// and on 2, 3, 5 and 7. Every plan keeps the same rows, hashes and targets;
// each station's frame is byte-identical to the one-worker frame and sized
// exactly; each target set is placement.Pick's. A value of 2³¹ in the last
// range fails every split with ErrValueRange naming the lowest offending
// person, and fails Place with nothing placed and every person unplaced,
// ascending.
func TestPlaceSplitMatchesOneWorker(t *testing.T) {
	const persons, length, r = 5*passRows + 3, 6, 2
	alive := []uint32{2, 3, 5, 8, 13, 21, 34, 55, 89}
	rng := rand.New(rand.NewSource(7))
	patterns := make(map[PersonID]Pattern, persons)
	sorted := make([]PersonID, 0, persons)
	for i := 0; i < persons; i++ {
		p := PersonID(3*i + 1)
		pat := make(Pattern, length)
		if i%13 != 0 {
			for j := range pat {
				pat[j] = rng.Int63n(20_000) - 1_000
			}
			switch i % 11 {
			case 1:
				pat[1+rng.Intn(length-1)] = math.MinInt32
			case 2:
				pat[1+rng.Intn(length-1)] = math.MaxInt32
			}
			if pat.Sum() == 0 {
				pat[0]++ // kept: only every thirteenth row is dropped
			}
		}
		patterns[p] = pat
		sorted = append(sorted, p)
	}
	plan := func(workers int) copyPlan {
		t.Helper()
		pl, err := planCopies(slices.Clone(sorted), patterns, alive, r, workers)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		return pl
	}
	frames := func(pl copyPlan) map[uint32][]byte {
		t.Helper()
		out := make(map[uint32][]byte, len(pl.perStation))
		for sid, share := range pl.perStation {
			b, err := wire.EncodeRows(nil, pl.rows.persons, pl.rows.locals, share.index, share.bytes, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) != cap(b) {
				t.Fatalf("station %d: frame of %d bytes in a buffer of %d", sid, len(b), cap(b))
			}
			out[sid] = b
		}
		return out
	}

	one := plan(1)
	if want := persons - (persons+12)/13; len(one.rows.persons) != want {
		t.Fatalf("one worker kept %d rows, want %d", len(one.rows.persons), want)
	}
	for i, p := range one.rows.persons {
		pat := one.rows.locals[i]
		if !pat.Equal(patterns[p]) || pat.Sum() == 0 || one.hashes[i] != placement.ContentHash(pat) {
			t.Fatalf("row %d (person %d): pattern, zero drop or hash differs from the caller's", i, p)
		}
		var got []uint32
		for _, k := range one.targets[i*one.width : (i+1)*one.width] {
			got = append(got, alive[k])
		}
		if want := placement.Pick(p, alive, r); !slices.Equal(got, want) {
			t.Fatalf("person %d targets %v, Pick says %v", p, got, want)
		}
	}
	oneFrames := frames(one)
	for _, workers := range []int{2, 3, 5, 7} {
		split := plan(workers)
		if !slices.Equal(split.rows.persons, one.rows.persons) || !slices.Equal(split.hashes, one.hashes) || !slices.Equal(split.targets, one.targets) {
			t.Fatalf("%d workers: rows, hashes or targets differ from one worker's", workers)
		}
		if !maps.EqualFunc(frames(split), oneFrames, slices.Equal[[]byte]) {
			t.Fatalf("%d workers: a station's frame differs from one worker's", workers)
		}
	}

	// 2³¹ in the last range of every split, and at a lower person in the
	// second-to-last range of the seven-way split.
	last, lower := sorted[persons-1], sorted[5*persons/7+1]
	patterns[last] = slices.Clone(patterns[last])
	patterns[last][length-1] = 1 << 31
	for _, workers := range []int{1, 2, 3, 5, 7} {
		if _, err := planCopies(slices.Clone(sorted), patterns, alive, r, workers); !errors.Is(err, ErrValueRange) || !strings.Contains(err.Error(), fmt.Sprintf("person %d", last)) {
			t.Fatalf("%d workers, 2³¹ at person %d: err %v", workers, last, err)
		}
	}
	patterns[lower] = slices.Clone(patterns[lower])
	patterns[lower][0] = 1 << 31
	if _, err := planCopies(slices.Clone(sorted), patterns, alive, r, 7); !errors.Is(err, ErrValueRange) || !strings.Contains(err.Error(), fmt.Sprintf("person %d", lower)) {
		t.Fatalf("2³¹ at persons %d and %d: err %v, want it to name %d", lower, last, err, lower)
	}
	delete(patterns, lower)

	ctx := context.Background()
	c, err := NewCluster(placedOptions(), length, emptyMembers(alive)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	unplaced, err := c.place(ctx, patterns, WithReplication(r))
	if !errors.Is(err, ErrValueRange) {
		t.Fatalf("Place with 2³¹ at person %d: err %v, want ErrValueRange", last, err)
	}
	if want := allPersons(patterns); !slices.Equal(unplaced, want) || !slices.IsSorted(unplaced) {
		t.Fatalf("Place left %d of %d persons unplaced, want all, ascending", len(unplaced), len(want))
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Placed() != 0 || st.TotalResidents() != 0 {
		t.Fatalf("refused Place left %d placed and %d residents", c.Placed(), st.TotalResidents())
	}
}
