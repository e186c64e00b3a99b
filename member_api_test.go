package dimatch

import (
	"context"
	"reflect"
	"testing"

	"dimatch/internal/transport"
)

// TestNewClusterMixedMembers builds one cluster from the three member kinds
// — a seeded in-process station, a WAL-backed in-process station and a
// remote station served over a link — and requires it to answer exactly
// like an all-in-process cluster over the same data, under full fan-out and
// under summary routing.
func TestNewClusterMixedMembers(t *testing.T) {
	data := map[uint32]map[PersonID]Pattern{
		0: {10: {1, 2, 3}, 12: {3, 4, 5}, 13: {7, 1, 9}, 14: {1, 2, 3}},
		1: {10: {2, 2, 2}, 12: {3, 4, 5}, 20: {50, 60, 70}},
		2: {11: {3, 4, 5}, 12: {3, 4, 5}, 30: {500, 600, 700}},
	}
	opts := Options{Params: Params{Samples: 3, Seed: 7}}

	flat, err := NewCluster(opts, 3, Members(data)...)
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Shutdown() //nolint:errcheck // test teardown

	wal, err := OpenWALStore(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	center, stationEnd := transport.Pipe(nil, nil)
	served := make(chan error, 1)
	go func() { served <- ServeStation(2, data[2], stationEnd) }()
	mixed, err := NewCluster(opts, 3,
		Member{ID: 0, Patterns: data[0]},
		Member{ID: 1, Patterns: data[1], Store: wal},
		Member{ID: 2, Link: center},
	)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	queries := []Query{
		{ID: 1, Locals: []Pattern{{1, 2, 3}, {2, 2, 2}}},
		{ID: 2, Locals: []Pattern{{50, 60, 70}}},
		{ID: 3, Locals: []Pattern{{500, 600, 700}}},
	}
	for _, mode := range []RoutingMode{RoutingFull, RoutingSummary} {
		want, err := flat.Search(ctx, queries, WithRouting(mode))
		if err != nil {
			t.Fatal(err)
		}
		got, err := mixed.Search(ctx, queries, WithRouting(mode))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.PerQuery, want.PerQuery) {
			t.Fatalf("%s: mixed members answered %v, in-process cluster %v", mode, got.PerQuery, want.PerQuery)
		}
		if len(want.PerQuery[1]) != 3 || len(want.PerQuery[2]) != 1 || len(want.PerQuery[3]) != 1 {
			t.Fatalf("%s: probe queries answered %v — test data drifted", mode, want.PerQuery)
		}
	}

	st, err := mixed.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalResidents() != 10 {
		t.Fatalf("mixed cluster holds %d residents, want 10", st.TotalResidents())
	}
	if err := mixed.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("linked station: %v", err)
	}
}
