package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"dimatch"
	"dimatch/internal/placement"
)

// holdersOf returns the r stations a person's replicas live on.
func holdersOf(p dimatch.PersonID, stations []uint32, r int) []uint32 {
	return placement.Pick(p, stations, r)
}

func TestPlaceReplicatedSearch(t *testing.T) {
	stations := []uint32{1, 2, 3, 4}
	patterns := map[dimatch.PersonID]dimatch.Pattern{
		200: {9, 9, 9, 9},
	}
	for p := dimatch.PersonID(100); p < 110; p++ {
		patterns[p] = dimatch.Pattern{1, 2, 3, 4}
	}
	c := newPlacedCluster(t, stations, 2, patterns)
	if got := c.Placed(); got != len(patterns) {
		t.Fatalf("Placed() = %d, want %d", got, len(patterns))
	}

	out, err := c.Search(context.Background(), []dimatch.Query{
		{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3, 4}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	results := out.PerQuery[1]
	if len(results) != 10 {
		t.Fatalf("got %d results, want 10: %+v", len(results), results)
	}
	for _, r := range results {
		if r.Person < 100 || r.Person >= 110 {
			t.Fatalf("unexpected person %d retrieved", r.Person)
		}
		// Without replica dedup the two copies would sum to weight 2 and be
		// deleted as over-matched; with it each person scores exactly 1,
		// from one copy's station.
		if r.Score() != 1.0 || r.Stations != 1 {
			t.Fatalf("person %d scored %.3f from %d stations, want 1 from one copy", r.Person, r.Score(), r.Stations)
		}
	}

	// The replicas live in storage: 11 persons at R=2 is 22 residents.
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalResidents() != 2*len(patterns) {
		t.Fatalf("TotalResidents = %d, want %d", st.TotalResidents(), 2*len(patterns))
	}
}

// TestReplicaDedupDifferentScores: two replicas of one person report
// different sampled scores (one copy drifted); the aggregation must keep the
// highest, not sum them (deletion) or keep the lower.
func TestReplicaDedupDifferentScores(t *testing.T) {
	stations := []uint32{1, 2, 3, 4}
	c := newPlacedCluster(t, stations, 2, map[dimatch.PersonID]dimatch.Pattern{
		50: {3, 3, 3, 3},
	})
	ctx := context.Background()

	// Overwrite one replica with a copy that only matches the query's
	// second local (weight 8/12), while the intact replica matches the full
	// combination (weight 1).
	holders := holdersOf(50, stations, 2)
	if err := c.Ingest(ctx, holders[1], map[dimatch.PersonID]dimatch.Pattern{50: {2, 2, 2, 2}}); err != nil {
		t.Fatal(err)
	}

	out, err := c.Search(ctx, []dimatch.Query{
		{ID: 1, Locals: []dimatch.Pattern{{1, 1, 1, 1}, {2, 2, 2, 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	results := out.PerQuery[1]
	if len(results) != 1 || results[0].Person != 50 {
		t.Fatalf("results = %+v, want person 50", results)
	}
	if results[0].Score() != 1.0 {
		t.Fatalf("score = %.3f, want 1 (highest replica report wins)", results[0].Score())
	}
	if results[0].Stations != 1 {
		t.Fatalf("stations = %d, want 1 (the winning copy's)", results[0].Stations)
	}
	// Both replicas still hold a copy.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range st.Stations {
		want := 0
		if s.Station == holders[0] || s.Station == holders[1] {
			want = 1
		}
		if s.Residents != want {
			t.Fatalf("station %d holds %d residents, want %d", s.Station, s.Residents, want)
		}
	}
}

// TestSearchOverlappingRemoveStation: searches racing the removal of one
// replica must keep full recall — the surviving replica covers, whether the
// search catches the old epoch (failed exchange) or a post-heal one — and
// the removal leaves every placement back at R=2.
func TestSearchOverlappingRemoveStation(t *testing.T) {
	stations := []uint32{1, 2, 3, 4, 5}
	patterns := make(map[dimatch.PersonID]dimatch.Pattern)
	for p := dimatch.PersonID(100); p < 120; p++ {
		patterns[p] = dimatch.Pattern{1, 2, 3, 4}
	}
	c := newPlacedCluster(t, stations, 2, patterns)
	ctx := context.Background()
	query := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3, 4}}}}

	victim := holdersOf(100, stations, 2)[0]
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 5; i++ {
				out, err := c.Search(ctx, query)
				if err != nil {
					errs <- err
					return
				}
				found := make(map[dimatch.PersonID]bool)
				for _, r := range out.PerQuery[1] {
					found[r.Person] = true
				}
				for p := dimatch.PersonID(100); p < 120; p++ {
					if !found[p] {
						errs <- errors.New("person lost during replica removal")
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := c.RemoveStation(ctx, victim); err != nil {
			errs <- err
		}
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The planned departure healed before RemoveStation returned, like a
	// kill does: an explicit pass finds nothing left to copy.
	rep, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Copied != 0 || rep.Lost != 0 {
		t.Fatalf("post-removal Rebalance = %+v, want nothing to copy and nothing lost", rep)
	}
}

// TestReReplicationRestoresR: killing a replica's station triggers
// re-replication from the survivor, so a subsequent loss of the OTHER
// original holder still leaves the pattern searchable — impossible unless a
// fresh copy was made.
func TestReReplicationRestoresR(t *testing.T) {
	stations := []uint32{1, 2, 3, 4, 5}
	patterns := make(map[dimatch.PersonID]dimatch.Pattern)
	for p := dimatch.PersonID(100); p < 130; p++ {
		patterns[p] = dimatch.Pattern{1, 2, 3, 4}
	}
	c := newPlacedCluster(t, stations, 2, patterns)
	ctx := context.Background()
	query := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3, 4}}}}

	holders := holdersOf(100, stations, 2)
	if err := c.KillStation(holders[0]); err != nil {
		t.Fatal(err)
	}
	// The kill healed synchronously: an explicit pass finds nothing to do.
	rep, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Copied != 0 || rep.Lost != 0 {
		t.Fatalf("post-kill Rebalance = %+v, want nothing to copy and nothing lost", rep)
	}

	// Lose the other original holder too. Every pattern must survive: each
	// had at most one replica on the first victim, and the heal restored it.
	if err := c.KillStation(holders[1]); err != nil {
		t.Fatal(err)
	}
	out, err := c.Search(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[dimatch.PersonID]bool)
	for _, r := range out.PerQuery[1] {
		found[r.Person] = true
		if r.Score() != 1.0 {
			t.Fatalf("person %d scored %.3f after re-replication", r.Person, r.Score())
		}
	}
	for p := dimatch.PersonID(100); p < 130; p++ {
		if !found[p] {
			t.Fatalf("person %d lost after two kills despite re-replication", p)
		}
	}
}

// TestPlaceClampAndTopUp: a replication factor beyond the alive membership
// is clamped at execution, but the requested factor is recorded — when the
// membership grows, reconciliation tops placements back up.
func TestPlaceClampAndTopUp(t *testing.T) {
	c := newPlacedCluster(t, []uint32{1}, 2, map[dimatch.PersonID]dimatch.Pattern{
		7: {1, 2, 3, 4},
	})
	ctx := context.Background()

	// One station: one copy.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalResidents() != 1 {
		t.Fatalf("TotalResidents = %d, want 1 (clamped)", st.TotalResidents())
	}

	// Growing the membership triggers the top-up to R=2.
	if err := c.AddStation(ctx, dimatch.Member{ID: 2}); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalResidents() != 2 {
		t.Fatalf("TotalResidents = %d, want 2 after top-up", st.TotalResidents())
	}

	// And the topped-up copy is real: the original station can die.
	if err := c.KillStation(1); err != nil {
		t.Fatal(err)
	}
	out, err := c.Search(ctx, []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3, 4}}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerQuery[1]) != 1 || out.PerQuery[1][0].Person != 7 {
		t.Fatalf("person 7 lost after killing the original holder: %+v", out.PerQuery[1])
	}
}

func TestUnplace(t *testing.T) {
	stations := []uint32{1, 2, 3}
	c := newPlacedCluster(t, stations, 2, map[dimatch.PersonID]dimatch.Pattern{
		7: {1, 2, 3, 4},
		8: {1, 2, 3, 4},
	})
	ctx := context.Background()
	if err := c.Unplace(ctx, []dimatch.PersonID{7, 99}); err != nil {
		t.Fatal(err)
	}
	if got := c.Placed(); got != 1 {
		t.Fatalf("Placed() = %d, want 1", got)
	}
	out, err := c.Search(ctx, []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3, 4}}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerQuery[1]) != 1 || out.PerQuery[1][0].Person != 8 {
		t.Fatalf("results = %+v, want only person 8", out.PerQuery[1])
	}
}

// TestNewEmptyValidation checks NewCluster's validation for a cluster of empty
// stations built under placed options.
func TestNewEmptyValidation(t *testing.T) {
	if _, err := dimatch.NewCluster(placedOptions(), 4, emptyMembers(nil)...); err == nil {
		t.Fatal("no stations accepted")
	}
	if _, err := dimatch.NewCluster(placedOptions(), 4, emptyMembers([]uint32{1, 1})...); !errors.Is(err, dimatch.ErrStationExists) {
		t.Fatal("duplicate station accepted")
	}
	if _, err := dimatch.NewCluster(placedOptions(), 0, emptyMembers([]uint32{1})...); err == nil {
		t.Fatal("zero length accepted")
	}
}

// TestStatsRefreshAfterKillStation: after a kill the next Stats call reports
// the dead station as failed instead of serving its stale resident counts.
func TestStatsRefreshAfterKillStation(t *testing.T) {
	data := map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		1: {1: {1, 2, 3}},
		2: {2: {4, 5, 6}, 3: {7, 8, 9}},
	}
	c, err := newFromData(placedOptions(), data)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()

	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.TotalResidents() != 3 || before.StationsFailed != 0 {
		t.Fatalf("before kill: %+v", before)
	}

	if err := c.KillStation(2); err != nil {
		t.Fatal(err)
	}
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.StationsFailed != 1 {
		t.Fatalf("StationsFailed = %d, want 1 (the killed station)", after.StationsFailed)
	}
	if after.TotalResidents() != 1 {
		t.Fatalf("TotalResidents = %d, want 1 — dead station's residents served stale", after.TotalResidents())
	}
	for _, s := range after.Stations {
		if s.Station == 2 {
			t.Fatalf("dead station still listed: %+v", after.Stations)
		}
	}
}

// TestEverySingleKillKeepsResultsAtR2 states the replica guarantee over the
// whole membership instead of one hand-picked victim: for each station in
// turn, a fresh R=2 cluster that loses it answers exactly like the healthy
// one, and the synchronous heal left Rebalance nothing to copy. The R=1
// sub-case loses a result to the same kill, so the R=2 cases cannot pass
// vacuously.
func TestEverySingleKillKeepsResultsAtR2(t *testing.T) {
	stations := []uint32{1, 2, 3, 4, 5}
	patterns := map[dimatch.PersonID]dimatch.Pattern{200: {9, 9, 9, 9}}
	for p := dimatch.PersonID(100); p < 130; p++ {
		patterns[p] = dimatch.Pattern{1, 2, 3, 4}
	}
	ctx := context.Background()
	queries := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3, 4}}}}
	search := func(c *dimatch.Cluster) *dimatch.Outcome {
		t.Helper()
		out, err := c.Search(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	healthy := search(newPlacedCluster(t, stations, 2, patterns))
	if len(healthy.PerQuery[1]) != 30 {
		t.Fatalf("healthy cluster found %d persons, want 30", len(healthy.PerQuery[1]))
	}
	for _, victim := range stations {
		c := newPlacedCluster(t, stations, 2, patterns)
		if err := c.KillStation(victim); err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("R=2 minus station %d", victim), queries, healthy, search(c))
		rep, err := c.Rebalance(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Copied != 0 || rep.Lost != 0 {
			t.Fatalf("station %d killed: post-heal Rebalance = %+v, want nothing to copy and nothing lost", victim, rep)
		}
	}

	c := newPlacedCluster(t, stations, 1, patterns)
	if err := c.KillStation(holdersOf(100, stations, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if got := len(search(c).PerQuery[1]); got >= 30 {
		t.Fatalf("R=1 cluster still found %d persons after losing person 100's only holder", got)
	}
}
