package dimatch

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestLiveClusterLifecyclePublicAPI drives the lifecycle surface end to end
// through the public package: ingest a brand-new person, grow the cluster
// with a station holding the second half of their pattern, find them with a
// verified WBF search, inspect Stats, then evict and shrink back — all on
// one running cluster, with searches interleaved throughout. Run under
// -race in CI.
func TestLiveClusterLifecyclePublicAPI(t *testing.T) {
	data := map[uint32]map[PersonID]Pattern{
		0: {10: {1, 2, 3}, 13: {7, 1, 9}},
		1: {10: {2, 2, 2}, 11: {3, 4, 5}},
	}
	c, err := NewCluster(Options{Params: Params{Bits: 1 << 14, Hashes: 4, Samples: 3, Seed: 7}}, 3, Members(data)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown() //nolint:errcheck // test teardown
	ctx := context.Background()

	// Person 20 does not exist yet: their first piece is ingested into
	// station 0, their second arrives with a brand-new station 2.
	target := Query{ID: 5, Locals: []Pattern{{5, 0, 1}, {1, 4, 2}}}
	if out, err := c.Search(ctx, []Query{target}); err != nil {
		t.Fatal(err)
	} else {
		for _, p := range out.Persons(5) {
			if p == 20 {
				t.Fatal("person 20 retrieved before ingestion")
			}
		}
	}

	// Keep searches in flight while the membership changes underneath.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := Query{ID: 1, Locals: []Pattern{{1, 2, 3}, {2, 2, 2}}}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Search(ctx, []Query{q}); err != nil {
				t.Errorf("concurrent search during churn: %v", err)
				return
			}
		}
	}()

	if err := c.Ingest(ctx, 0, map[PersonID]Pattern{20: {5, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddStation(ctx, Member{ID: 2, Patterns: map[PersonID]Pattern{20: {1, 4, 2}}}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if got := c.Stations(); got != 3 {
		t.Fatalf("Stations() = %d after AddStation, want 3", got)
	}
	out, err := c.Search(ctx, []Query{target}, WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range out.PerQuery[5] {
		if r.Person == 20 {
			found = true
			if r.Score() != 1.0 {
				t.Fatalf("spanning target score = %v, want 1", r.Score())
			}
		}
	}
	if !found {
		t.Fatalf("person 20 (ingested + new station) not retrieved: %v", out.Persons(5))
	}
	if out.Cost.StationRawBytes == 0 {
		t.Fatal("StationRawBytes not sourced from station stats")
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalResidents() != 6 {
		t.Fatalf("TotalResidents = %d, want 6", st.TotalResidents())
	}
	if st.TotalStorageBytes() != out.Cost.StationRawBytes {
		t.Fatalf("Stats storage %d != search's StationRawBytes %d", st.TotalStorageBytes(), out.Cost.StationRawBytes)
	}

	// Shrink back: evict the ingested piece and remove the new station.
	if err := c.Evict(ctx, 0, []PersonID{20}); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveStation(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.Stations(); got != 2 {
		t.Fatalf("Stations() = %d after RemoveStation, want 2", got)
	}
	out, err = c.Search(ctx, []Query{target})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range out.Persons(5) {
		if p == 20 {
			t.Fatal("person 20 retrieved after eviction and station removal")
		}
	}

	// Sentinels surface through the public package.
	if err := c.Ingest(ctx, 42, map[PersonID]Pattern{1: {1, 2, 3}}); !errors.Is(err, ErrUnknownStation) {
		t.Fatalf("err = %v, want ErrUnknownStation", err)
	}
	if err := c.AddStation(ctx, Member{ID: 0}); !errors.Is(err, ErrStationExists) {
		t.Fatalf("err = %v, want ErrStationExists", err)
	}
	if err := c.AddStation(ctx, Member{ID: 9, Patterns: map[PersonID]Pattern{1: {1}}}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("err = %v, want ErrLengthMismatch", err)
	}
}
