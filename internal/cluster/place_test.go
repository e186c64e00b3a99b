package cluster

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
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
	randPattern := func() pattern.Pattern {
		pat := make(pattern.Pattern, length)
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
	c, err := New(placedOptions(), length, members...)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { _ = c.Shutdown() })
	if rng.Intn(3) == 0 {
		if err := c.KillStation(uint32(1 + rng.Intn(n))); err != nil {
			t.Fatal(err)
		}
	}
	alive, _ := c.aliveMembers()

	holds := make(map[uint32]map[core.PersonID]pattern.Pattern)
	for _, sid := range alive {
		holds[sid] = make(map[core.PersonID]pattern.Pattern)
	}
	intents := make(map[core.PersonID]placement.Entry)
	next := core.PersonID(1)
	for round := 0; round < 6; round++ {
		r := []int{1, 2, 3, n + rng.Intn(2)}[rng.Intn(4)]
		size := 20 + rng.Intn(200)
		batch := make(map[core.PersonID]pattern.Pattern, size)
		earlier := make([]core.PersonID, 0, len(intents))
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
				batch[p] = make(pattern.Pattern, length)
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

		unplaced, err := c.Place(ctx, batch, WithReplication(r))
		for _, l := range links {
			l.disarm()
		}

		var wantUnplaced []core.PersonID
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
			if !maps.EqualFunc(want, holds[sid], slices.Equal[pattern.Pattern]) {
				t.Fatalf("%s: station %d holds %d residents, the model %d", label, sid, len(want), len(holds[sid]))
			}
		}
	}
}

// stationHoldings pulls every alive station's whole resident store.
func stationHoldings(t *testing.T, c *Cluster) map[uint32]map[core.PersonID]pattern.Pattern {
	t.Helper()
	ids, muxes := c.aliveMembers()
	out := make(map[uint32]map[core.PersonID]pattern.Pattern, len(ids))
	for i, sid := range ids {
		reply, err := muxes[i].Roundtrip(context.Background(), wire.EncodeDump(wire.Dump{}))
		if err != nil {
			t.Fatalf("dump station %d: %v", sid, err)
		}
		dr, err := wire.DecodeDumpReply(reply)
		if err != nil {
			t.Fatalf("dump station %d: %v", sid, err)
		}
		got := make(map[core.PersonID]pattern.Pattern, len(dr.Persons))
		for j, p := range dr.Persons {
			got[p] = dr.Locals[j]
		}
		out[sid] = got
	}
	return out
}
