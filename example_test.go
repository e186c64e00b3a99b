package dimatch_test

import (
	"context"
	"fmt"
	"log"

	"dimatch"
)

// exampleCity is a two-station toy city of 3-interval patterns: person 10's
// global pattern {3,4,5} is split across the stations, person 11 holds it
// whole. The cluster runs under opts.
func exampleCity(opts dimatch.Options) (*dimatch.Cluster, error) {
	return dimatch.NewCluster(opts, 3,
		dimatch.Member{ID: 0, Patterns: map[dimatch.PersonID]dimatch.Pattern{10: {1, 2, 3}}},
		dimatch.Member{ID: 1, Patterns: map[dimatch.PersonID]dimatch.Pattern{10: {2, 2, 2}, 11: {3, 4, 5}}},
	)
}

// ExampleCluster_Search runs one WBF search: the query carries person 10's
// two local pieces, and both the split person (10) and the person holding
// the identical global pattern outright (11) score a complete partition.
func ExampleCluster_Search() {
	c, err := exampleCity(dimatch.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()

	q := dimatch.Query{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3}, {2, 2, 2}}}
	out, err := c.Search(context.Background(), []dimatch.Query{q})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range out.PerQuery[1] {
		fmt.Printf("person %d scores %.1f across %d stations\n", r.Person, r.Score(), r.Stations)
	}
	// Output:
	// person 10 scores 1.0 across 2 stations
	// person 11 scores 1.0 across 1 stations
}

// ExampleCluster_Search_options keeps only the best answer, a cluster
// Option, and verifies it exactly against fetched patterns for one call.
func ExampleCluster_Search_options() {
	c, err := exampleCity(dimatch.Options{TopK: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()

	q := dimatch.Query{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3}, {2, 2, 2}}}
	out, err := c.Search(context.Background(), []dimatch.Query{q}, dimatch.WithVerify(true))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range out.PerQuery[1] {
		fmt.Printf("person %d verified at %.1f\n", r.Person, r.Score())
	}
	// Output:
	// person 10 verified at 1.0
}

// ExampleCluster_Search_routing shows summary routing pruning fan-out: the
// stores are well separated, so a single-target search visits only the one
// station that can answer. Routing is the default — the option is spelled
// out here only to contrast the two modes.
func ExampleCluster_Search_routing() {
	c, err := dimatch.NewCluster(dimatch.Options{}, 3, dimatch.Members(map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		0: {10: {1, 2, 3}},
		1: {20: {50, 60, 70}},
		2: {30: {500, 600, 700}},
	})...)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()

	q := dimatch.Query{ID: 1, Locals: []dimatch.Pattern{{50, 60, 70}}}
	out, err := c.Search(ctx, []dimatch.Query{q}) // summary-routed by default
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range out.PerQuery[1] {
		fmt.Printf("person %d scores %.1f\n", r.Person, r.Score())
	}
	fmt.Printf("stations pruned: %d of %d\n", out.Cost.StationsPruned, c.Stations())
	// Output:
	// person 20 scores 1.0
	// stations pruned: 2 of 3
}

// ExampleWithRouting contrasts the two routing modes on one cluster: full
// fan-out visits every station, summary routing skips the ones whose cached
// summary admits no possible match — with identical results.
func ExampleWithRouting() {
	c, err := dimatch.NewCluster(dimatch.Options{}, 3, dimatch.Members(map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		0: {10: {1, 2, 3}},
		1: {20: {50, 60, 70}},
		2: {30: {500, 600, 700}},
	})...)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()
	q := dimatch.Query{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3}}}

	full, err := c.Search(ctx, []dimatch.Query{q}, dimatch.WithRouting(dimatch.RoutingFull))
	if err != nil {
		log.Fatal(err)
	}
	routed, err := c.Search(ctx, []dimatch.Query{q}) // dimatch.RoutingSummary
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full: %d query frames, %d pruned\n", full.Cost.MessagesDown, full.Cost.StationsPruned)
	fmt.Printf("routed: %d query frames, %d pruned\n", routed.Cost.MessagesDown, routed.Cost.StationsPruned)
	fmt.Println("same answer:", len(full.PerQuery[1]) == len(routed.PerQuery[1]))
	// Output:
	// full: 3 query frames, 0 pruned
	// routed: 1 query frames, 2 pruned
	// same answer: true
}

func ExampleCluster_Ingest() {
	c, err := exampleCity(dimatch.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()

	err = c.Ingest(ctx, 0, map[dimatch.PersonID]dimatch.Pattern{
		4711: {0, 3, 1}, // person 4711's new local pattern at station 0
	})
	if err != nil {
		log.Fatal(err)
	}
	st, _ := c.Stats(ctx)
	fmt.Println("residents after ingest:", st.TotalResidents())

	if err := c.Evict(ctx, 0, []dimatch.PersonID{4711}); err != nil {
		log.Fatal(err)
	}
	st, _ = c.Stats(ctx)
	fmt.Println("residents after evict:", st.TotalResidents())
	// Output:
	// residents after ingest: 4
	// residents after evict: 3
}

// ExampleCluster_Stats reads the per-station storage snapshot the stations
// report about themselves over the wire, with their answer to the join and
// to every mutation.
func ExampleCluster_Stats() {
	c, err := exampleCity(dimatch.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()

	st, err := c.Stats(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range st.Stations {
		fmt.Printf("station %d: %d residents, %d B raw patterns\n",
			s.Station, s.Residents, s.StorageBytes)
	}
	fmt.Printf("total: %d residents, %d B\n", st.TotalResidents(), st.TotalStorageBytes())
	// Output:
	// station 0: 1 residents, 24 B raw patterns
	// station 1: 2 residents, 48 B raw patterns
	// total: 3 residents, 72 B
}

// ExampleCluster_Place runs a placement-first deployment: an empty cluster,
// patterns placed onto rendezvous-hashed replicas, and a search that
// survives losing any single station.
func ExampleCluster_Place() {
	c, err := dimatch.NewCluster(dimatch.Options{}, 3,
		dimatch.Member{ID: 1}, dimatch.Member{ID: 2}, dimatch.Member{ID: 3}, dimatch.Member{ID: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()

	// Each pattern lands on 2 stations chosen by HRW hashing; no station
	// IDs in sight.
	err = c.Place(ctx, map[dimatch.PersonID]dimatch.Pattern{
		10: {3, 4, 5},
		11: {3, 4, 5},
	}, dimatch.WithReplication(2))
	if err != nil {
		log.Fatal(err)
	}
	st, _ := c.Stats(ctx)
	fmt.Printf("placed %d persons as %d replicas\n", c.Placed(), st.TotalResidents())

	// Replicas dedupe: each person appears once, at the best replica's
	// score, reported by both copies.
	q := dimatch.Query{ID: 1, Locals: []dimatch.Pattern{{3, 4, 5}}}
	out, err := c.Search(ctx, []dimatch.Query{q})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("healthy results:", len(out.PerQuery[1]))

	// Any single station can die: the kill re-replicates its patterns from
	// the surviving copies, so recall holds.
	if err := c.KillStation(1); err != nil {
		log.Fatal(err)
	}
	out, err = c.Search(ctx, []dimatch.Query{q})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after losing a station:", len(out.PerQuery[1]))
	// Output:
	// placed 2 persons as 4 replicas
	// healthy results: 2
	// after losing a station: 2
}
