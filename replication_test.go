package dimatch

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// placedOptions sizes the filter explicitly so the tiny populations of these
// tests cannot hit Bloom false positives.
func placedOptions() Options {
	return Options{Params: Params{Bits: 1 << 16, Hashes: 4, Samples: 4, Epsilon: 0, Seed: 1}}
}

// newPlacedCluster stands up an empty in-process cluster and places the
// given patterns with replication r.
func newPlacedCluster(t *testing.T, stations []uint32, r int, patterns map[PersonID]Pattern) *Cluster {
	t.Helper()
	length := 0
	for _, p := range patterns {
		length = len(p)
		break
	}
	c, err := NewCluster(placedOptions(), length, emptyMembers(stations)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	if err := c.Place(context.Background(), patterns, WithReplication(r)); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlaceValidation(t *testing.T) {
	c := newPlacedCluster(t, []uint32{1, 2}, 2, map[PersonID]Pattern{7: {1, 2, 3, 4}})
	ctx := context.Background()
	if err := c.Place(ctx, map[PersonID]Pattern{9: {1, 2}}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("short pattern: err = %v, want ErrLengthMismatch", err)
	}
	if err := c.Place(ctx, nil); err != nil {
		t.Fatalf("empty place: %v", err)
	}
	// An all-zero pattern is skipped (stations would drop it on ingest), so
	// no unsatisfiable intent is recorded and reconciliation stays clean.
	if err := c.Place(ctx, map[PersonID]Pattern{42: {0, 0, 0, 0}}); err != nil {
		t.Fatalf("zero-sum place: %v", err)
	}
	if c.Placed() != 1 {
		t.Fatalf("Placed() = %d after zero-sum place, want 1", c.Placed())
	}
	if rep, err := c.Rebalance(ctx); err != nil || rep.Lost != 0 {
		t.Fatalf("Rebalance after zero-sum place = %+v, %v", rep, err)
	}
	if err := c.KillStation(1); err != nil {
		t.Fatal(err)
	}
	if err := c.KillStation(2); err != nil {
		t.Fatal(err)
	}
	unplaced, err := c.place(ctx, map[PersonID]Pattern{9: {1, 2, 3, 4}})
	if !errors.Is(err, ErrNoAliveStations) || len(unplaced) != 1 || unplaced[0] != 9 {
		t.Fatalf("all dead: unplaced %v, err = %v, want [9] and ErrNoAliveStations", unplaced, err)
	}
}

// TestPlaceReportsUnplaced pins the retry contract the streaming pipeline
// relies on: Place names exactly the persons it landed nowhere and rolls
// their intents back, and names nobody when every person landed.
func TestPlaceReportsUnplaced(t *testing.T) {
	c := newPlacedCluster(t, []uint32{1, 2, 3}, 2, map[PersonID]Pattern{7: {1, 2, 3, 4}})
	batch := map[PersonID]Pattern{8: {5, 6, 7, 8}, 9: {9, 9, 9, 9}}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	unplaced, err := c.place(cancelled, batch)
	if err == nil || !slices.Equal(unplaced, []PersonID{8, 9}) {
		t.Fatalf("cancelled place: unplaced %v, err %v, want both persons, ascending, and an error", unplaced, err)
	}
	// A batch refused before any exchange names every person, ascending.
	bad := map[PersonID]Pattern{30: {1, 2}, 10: {1, 2, 3, 4}, 20: {4, 3, 2, 1}}
	if unplaced, err := c.place(context.Background(), bad); !errors.Is(err, ErrLengthMismatch) || !slices.Equal(unplaced, []PersonID{10, 20, 30}) {
		t.Fatalf("refused place: unplaced %v, err %v, want [10 20 30] and ErrLengthMismatch", unplaced, err)
	}
	if c.Placed() != 1 {
		t.Fatalf("Placed() = %d after a place that landed nothing, want the 1 prior person", c.Placed())
	}

	unplaced, err = c.place(context.Background(), batch)
	if err != nil || len(unplaced) != 0 {
		t.Fatalf("healthy place: unplaced %v, err %v, want none", unplaced, err)
	}
	if c.Placed() != 3 {
		t.Fatalf("Placed() = %d, want 3", c.Placed())
	}
}

// TestReplicatedPredKeepsOneModelPerPerson pins what the aggregation needs
// from the placed-person predicate: whatever one closure answered for a
// person first, it keeps answering, even when a Place or Unplace lands
// between two calls — a person must not move between the max-dedup and the
// summation model halfway through their reports.
func TestReplicatedPredKeepsOneModelPerPerson(t *testing.T) {
	c := newPlacedCluster(t, []uint32{1, 2, 3}, 2, map[PersonID]Pattern{
		7: {1, 2, 3, 4},
		8: {1, 2, 3, 4},
	})
	ctx := context.Background()
	pred := c.replicatedPred()
	if !pred(7) || pred(9) {
		t.Fatalf("pred(7), pred(9) = %v, %v; want placed, not placed", pred(7), pred(9))
	}
	if err := c.Unplace(ctx, []PersonID{7}); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(ctx, map[PersonID]Pattern{9: {1, 2, 3, 4}}, WithReplication(2)); err != nil {
		t.Fatal(err)
	}
	if !pred(7) {
		t.Fatal("person 7 flipped to the summation model when Unplace landed mid-aggregation")
	}
	if pred(9) {
		t.Fatal("person 9 flipped to the dedup model when Place landed mid-aggregation")
	}
	if fresh := c.replicatedPred(); fresh(7) || !fresh(9) || !fresh(8) {
		t.Fatalf("a fresh predicate answers %v, %v, %v for persons 7, 9, 8; want the table as it stands", fresh(7), fresh(9), fresh(8))
	}
}

// TestSearchAllocationIndependentOfPlaced: a point search pays for the
// persons it hears about, not for every person the coordinator has placed.
// The same query over the same four stations allocates about as much with
// 50 000 persons placed as with 500; copying the placement table per search
// made it two orders of magnitude more.
func TestSearchAllocationIndependentOfPlaced(t *testing.T) {
	const length = 8
	ctx := context.Background()
	target := Pattern{900_001, 900_002, 900_003, 900_004, 900_005, 900_006, 900_007, 900_008}
	queries := []Query{{ID: 1, Locals: []Pattern{target}}}
	searchBytes := func(placed int) uint64 {
		rng := rand.New(rand.NewSource(1))
		patterns := make(map[PersonID]Pattern, placed)
		for p := PersonID(1); p < PersonID(placed); p++ {
			l := make(Pattern, length)
			for j := range l {
				l[j] = rng.Int63n(800_000)
			}
			patterns[p] = l
		}
		patterns[PersonID(placed)] = target
		c := newPlacedCluster(t, []uint32{1, 2, 3, 4}, 2, patterns)
		search := func() {
			out, err := c.Search(ctx, queries)
			if err != nil {
				t.Fatal(err)
			}
			if res := out.PerQuery[1]; len(res) != 1 || res[0].Person != PersonID(placed) {
				t.Fatalf("%d placed: results = %+v, want only person %d", placed, res, placed)
			}
		}
		search() // fills the routing-summary cache
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			search()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := searchBytes(500), searchBytes(50_000)
	t.Logf("bytes allocated per search: %d with 500 placed, %d with 50 000 placed", small, large)
	if large >= 2*small {
		t.Fatalf("a search allocates %d bytes with 50 000 persons placed, %d with 500: the cost follows the placement table, not the answer", large, small)
	}
}
