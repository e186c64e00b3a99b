// examples_test.go mirrors every code snippet in README.md, so the
// documentation cannot drift from the API: if a snippet stops compiling or
// behaving as the text claims, this file fails the build.
package dimatch_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dimatch"
)

// TestReadmeQuickstartSnippet is the README "Quickstart" block, verbatim
// apart from capturing output instead of printing it.
func TestReadmeQuickstartSnippet(t *testing.T) {
	// One member per base station: its ID and its residents' local
	// patterns (person → pattern), all 3 intervals long.
	c, _ := dimatch.NewCluster(dimatch.Options{TopK: 10}, 3,
		dimatch.Member{ID: 0, Patterns: map[dimatch.PersonID]dimatch.Pattern{10: {1, 2, 3}}},
		dimatch.Member{ID: 1, Patterns: map[dimatch.PersonID]dimatch.Pattern{10: {2, 2, 2}, 11: {3, 4, 5}}},
	)
	defer c.Shutdown()

	// Person 10's global pattern {3,4,5} is split across stations 0 and 1;
	// the query carries the pieces.
	q := dimatch.Query{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3}, {2, 2, 2}}}
	out, _ := c.Search(context.Background(), []dimatch.Query{q},
		dimatch.WithVerify(true))

	// The README comment promises 10 at 1.0 and 11 at 1.0 ({3,4,5} whole).
	got := map[dimatch.PersonID]float64{}
	for _, r := range out.PerQuery[1] {
		got[r.Person] = r.Score()
	}
	if len(got) != 2 || got[10] != 1.0 || got[11] != 1.0 {
		t.Fatalf("quickstart results %v, README promises persons 10 and 11 at 1.0", got)
	}
}

// TestReadmeLifecycleSnippet is the README "Live-cluster lifecycle" block:
// every statement of the snippet, run against a cluster that has station 7
// and a dialled TCP link for station 100.
func TestReadmeLifecycleSnippet(t *testing.T) {
	c, err := dimatch.NewCluster(dimatch.Options{}, 3, dimatch.Members(map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		7: {1: {1, 1, 1}},
		8: {2: {2, 0, 1}},
	})...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	// The snippet's free variables: locals for the in-process station and
	// an established link whose far end serves station 100.
	locals := map[dimatch.PersonID]dimatch.Pattern{3: {0, 1, 2}}
	ln, err := dimatch.Listen("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stationLink, err := dimatch.Dial(ln.Addr(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = dimatch.ServeStation(100, map[dimatch.PersonID]dimatch.Pattern{4: {5, 5, 5}}, stationLink)
	}()
	link, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}

	// ---- the snippet, statement for statement ----
	ctx := context.Background()

	// Route freshly observed call data to the station that saw it.
	err = c.Ingest(ctx, 7, map[dimatch.PersonID]dimatch.Pattern{
		4711: {0, 3, 1}, // person 4711's new local pattern at station 7
	})
	if err != nil {
		t.Fatal(err)
	}

	// Drop expired or opted-out residents.
	err = c.Evict(ctx, 7, []dimatch.PersonID{4711})
	if err != nil {
		t.Fatal(err)
	}

	// Grow and shrink membership on the running cluster.
	err = c.AddStation(ctx, dimatch.Member{ID: 99, Patterns: locals}) // in-process station
	if err != nil {
		t.Fatal(err)
	}
	err = c.AddStation(ctx, dimatch.Member{ID: 100, Link: link}) // remote station over TCP
	if err != nil {
		t.Fatal(err)
	}
	err = c.RemoveStation(ctx, 99) // leaves the next epoch
	if err != nil {
		t.Fatal(err)
	}

	// Per-station resident counts and storage bytes, as each station last
	// reported them with its answer to a join or mutation.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(st.TotalResidents(), st.TotalStorageBytes())
	// ---- end of snippet ----

	// Stations 7, 8 and the TCP-joined 100 remain: three residents.
	if st.TotalResidents() != 3 {
		t.Fatalf("TotalResidents = %d, want 3 (stations 7, 8, 100)", st.TotalResidents())
	}
	if c.Stations() != 3 {
		t.Fatalf("Stations = %d, want 3", c.Stations())
	}
}

// TestReadmeStrategyTable backs the README strategy table's claims: naive
// answers exactly, BF cannot attribute candidates to queries, WBF ranks by
// weights summing to 1 for true matches.
func TestReadmeStrategyTable(t *testing.T) {
	data := map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		0: {10: {1, 2, 3}},
		1: {10: {2, 2, 2}, 11: {3, 4, 5}, 12: {9, 0, 0}},
	}
	c, err := dimatch.NewCluster(dimatch.Options{}, 3, dimatch.Members(data)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()
	queries := []dimatch.Query{
		{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3}, {2, 2, 2}}},
		{ID: 2, Locals: []dimatch.Pattern{{9, 0, 0}}},
	}

	// Naive: exact answers (the oracle's result through the wire).
	naive, err := c.Search(ctx, queries, dimatch.WithStrategy(dimatch.StrategyNaive))
	if err != nil {
		t.Fatal(err)
	}
	if got := naive.Persons(2); len(got) != 1 || got[0] != 12 {
		t.Fatalf("naive query 2 = %v, want exactly [12]", got)
	}

	// BF: every query receives the same unattributed candidate list.
	bf, err := c.Search(ctx, queries, dimatch.WithStrategy(dimatch.StrategyBF))
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := bf.Persons(1), bf.Persons(2)
	if len(p1) != len(p2) {
		t.Fatalf("BF per-query lists differ in length: %v vs %v", p1, p2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("BF attributed candidates per query: %v vs %v", p1, p2)
		}
	}

	// WBF: true matches score exactly 1 (weights sum to the full partition).
	wbf, err := c.Search(ctx, queries, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range wbf.PerQuery[1] {
		if r.Person == 10 && r.Score() != 1.0 {
			t.Fatalf("WBF person 10 score %v, want 1.0", r.Score())
		}
	}
	if len(wbf.PerQuery[2]) == 0 || wbf.PerQuery[2][0].Person != 12 {
		t.Fatalf("WBF query 2 = %v, want person 12 ranked first", wbf.PerQuery[2])
	}
}

// TestReadmeBatchingClaims backs the "Batched searches" section: a
// multi-query search is one exchange per station, separate Search calls
// answer each query identically, and a repeated query ID is refused with
// ErrBadQueries.
func TestReadmeBatchingClaims(t *testing.T) {
	data := map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		0: {10: {1, 2, 3}},
		1: {10: {2, 2, 2}, 11: {3, 4, 5}},
	}
	c, err := dimatch.NewCluster(dimatch.Options{}, 3, dimatch.Members(data)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()
	queries := []dimatch.Query{
		{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3}, {2, 2, 2}}},
		{ID: 2, Locals: []dimatch.Pattern{{3, 4, 5}}},
		{ID: 3, Locals: []dimatch.Pattern{{9, 9, 9}}},
	}

	batched, err := c.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Cost.MessagesDown != 2 {
		t.Fatalf("batched: %d msgs down; want one exchange per station", batched.Cost.MessagesDown)
	}
	for _, q := range queries {
		alone, err := c.Search(ctx, []dimatch.Query{q})
		if err != nil {
			t.Fatal(err)
		}
		b, l := batched.PerQuery[q.ID], alone.PerQuery[q.ID]
		if len(b) != len(l) {
			t.Fatalf("query %d: %d vs %d results", q.ID, len(b), len(l))
		}
		for i := range b {
			if b[i].Person != l[i].Person || b[i].Numerator != l[i].Numerator {
				t.Fatalf("query %d result %d differs searched alone", q.ID, i)
			}
		}
	}
	queries[2].ID = queries[0].ID
	if _, err := c.Search(ctx, queries); !errors.Is(err, dimatch.ErrBadQueries) {
		t.Fatalf("repeated query ID: err = %v, want ErrBadQueries", err)
	}
}

// TestReadmeRoutingSnippet is the README "Summary-routed search" block: the
// snippet's two searches, run against a cluster whose stores are separated
// enough for routing to prune, plus the section's identical-results claim.
func TestReadmeRoutingSnippet(t *testing.T) {
	c, err := dimatch.NewCluster(dimatch.Options{}, 3, dimatch.Members(map[uint32]map[dimatch.PersonID]dimatch.Pattern{
		0: {10: {1, 2, 3}},
		1: {20: {50, 60, 70}},
		2: {30: {500, 600, 700}},
	})...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()
	queries := []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{{50, 60, 70}}}}

	// ---- the snippet, statement for statement ----
	// Routing is on by default; force full fan-out to compare.
	full, _ := c.Search(ctx, queries, dimatch.WithRouting(dimatch.RoutingFull))
	routed, _ := c.Search(ctx, queries)
	fmt.Println(routed.Cost.StationsPruned, "stations pruned")
	// ---- end of snippet ----

	if full == nil || routed == nil {
		t.Fatal("searches failed")
	}
	if routed.Cost.StationsPruned != 2 {
		t.Fatalf("StationsPruned = %d, want 2 of 3 stations skipped", routed.Cost.StationsPruned)
	}
	if full.Cost.StationsPruned != 0 {
		t.Fatalf("full fan-out pruned %d stations", full.Cost.StationsPruned)
	}
	// "results are identical to full fan-out"
	w, g := full.PerQuery[1], routed.PerQuery[1]
	if len(w) != 1 || len(g) != 1 || w[0].Person != g[0].Person || w[0].Numerator != g[0].Numerator {
		t.Fatalf("README promises identical results: full %v vs routed %v", w, g)
	}
}

// TestReadmePlacementSnippet is the README "Replicated placement" block: an
// empty cluster, Place with WithReplication(2), and the single-station-loss
// guarantee the section claims.
func TestReadmePlacementSnippet(t *testing.T) {
	ctx := context.Background()

	// ---- the snippet, statement for statement ----
	// Four empty stations: every pattern arrives through placement.
	c, _ := dimatch.NewCluster(dimatch.Options{}, 3,
		dimatch.Member{ID: 1}, dimatch.Member{ID: 2}, dimatch.Member{ID: 3}, dimatch.Member{ID: 4})
	defer c.Shutdown()

	// No station IDs: each pattern lands on its 2-station replica group (the
	// rendezvous winner and its successor), and membership changes
	// re-replicate automatically.
	err := c.Place(ctx, map[dimatch.PersonID]dimatch.Pattern{
		10: {3, 4, 5},
		11: {3, 4, 5},
	}, dimatch.WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}

	out, _ := c.Search(ctx, []dimatch.Query{
		{ID: 1, Locals: []dimatch.Pattern{{3, 4, 5}}},
	})
	// ---- end of snippet ----

	if len(out.PerQuery[1]) != 2 {
		t.Fatalf("healthy search found %d persons, README promises 2", len(out.PerQuery[1]))
	}
	for _, r := range out.PerQuery[1] {
		if r.Score() != 1.0 || r.Stations != 1 {
			t.Fatalf("result %+v, README promises score 1.0 from one copy", r)
		}
	}
	if st, err := c.Stats(ctx); err != nil || st.TotalResidents() != 4 {
		t.Fatalf("stats %+v, %v: README promises 2 persons × 2 replicas in storage", st, err)
	}

	// The section claims any single station can be lost without losing
	// recall: kill each member in turn on a fresh cluster and re-search.
	for _, victim := range []uint32{1, 2, 3, 4} {
		c2, err := dimatch.NewCluster(dimatch.Options{}, 3,
			dimatch.Member{ID: 1}, dimatch.Member{ID: 2}, dimatch.Member{ID: 3}, dimatch.Member{ID: 4})
		if err != nil {
			t.Fatal(err)
		}
		err = c2.Place(ctx, map[dimatch.PersonID]dimatch.Pattern{
			10: {3, 4, 5},
			11: {3, 4, 5},
		}, dimatch.WithReplication(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.KillStation(victim); err != nil {
			t.Fatal(err)
		}
		out, err := c2.Search(ctx, []dimatch.Query{
			{ID: 1, Locals: []dimatch.Pattern{{3, 4, 5}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.PerQuery[1]) != 2 {
			t.Fatalf("killing station %d lost recall: %d persons", victim, len(out.PerQuery[1]))
		}
		_ = c2.Shutdown()
	}
}

// TestReadmeStreamingSnippet is the README "Streaming ingest" block,
// statement for statement, plus the claims the section makes about it:
// every accepted pattern is searchable after Flush, and the pipeline
// accounts for every submission.
func TestReadmeStreamingSnippet(t *testing.T) {
	ctx := context.Background()

	// ---- the snippet, statement for statement ----
	// Four empty stations: every pattern arrives through placement.
	c, _ := dimatch.NewCluster(dimatch.Options{}, 3,
		dimatch.Member{ID: 1}, dimatch.Member{ID: 2}, dimatch.Member{ID: 3}, dimatch.Member{ID: 4})
	defer c.Shutdown()

	// A pipeline: Submit never assembles maps or names stations — each
	// pattern rides a bounded queue to its 2-station replica group.
	in, _ := c.Stream(dimatch.StreamOptions{Replication: 2})
	for p := dimatch.PersonID(1); p <= 16; p++ {
		_ = in.Submit(ctx, p, dimatch.Pattern{3, 4, 5})
	}
	_ = in.Flush(ctx) // barrier: every accepted pattern is now searchable

	out, _ := c.Search(ctx, []dimatch.Query{
		{ID: 1, Locals: []dimatch.Pattern{{3, 4, 5}}},
	})
	rep := in.Report() // submitted, accepted, blocked, flushes, failures
	_ = in.Close()     // final drain: every acked pattern has landed
	// ---- end of snippet ----

	if len(out.PerQuery[1]) != 16 {
		t.Fatalf("search found %d persons, README promises all 16 streamed", len(out.PerQuery[1]))
	}
	for _, r := range out.PerQuery[1] {
		if r.Score() != 1.0 || r.Stations != 1 {
			t.Fatalf("result %+v, README promises score 1.0 from one copy", r)
		}
	}
	if st, err := c.Stats(ctx); err != nil || st.TotalResidents() != 32 {
		t.Fatalf("stats %+v, %v: README promises 16 persons × 2 replicas in storage", st, err)
	}
	if rep.Accepted != 16 || rep.FlushFailures != 0 {
		t.Fatalf("report %+v, README promises 16 accepted, nothing lost", rep)
	}
	if rep.Accepted+rep.Rejected != rep.Submitted {
		t.Fatalf("accounting does not balance: %+v", rep)
	}
}

// TestReadmeDurableSnippet is the README "Durable stations" block, statement
// for statement, plus the claim the section makes: a cluster restarted over
// the same WAL directories still answers for its placed residents.
func TestReadmeDurableSnippet(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()

	// ---- the snippet, statement for statement ----
	ctx := context.Background()

	// Two durable stations, one WAL directory each: a station appends every
	// acked mutation to its store before the ack leaves.
	s1, _ := dimatch.OpenWALStore(dir1, dimatch.WALOptions{})
	s2, _ := dimatch.OpenWALStore(dir2, dimatch.WALOptions{})
	c, _ := dimatch.NewCluster(dimatch.Options{}, 3,
		dimatch.Member{ID: 1, Store: s1}, dimatch.Member{ID: 2, Store: s2})

	// Person 7's global pattern {3,4,5} arrives split across the stations.
	_ = c.Ingest(ctx, 1, map[dimatch.PersonID]dimatch.Pattern{7: {1, 2, 3}})
	_ = c.Ingest(ctx, 2, map[dimatch.PersonID]dimatch.Pattern{7: {2, 2, 2}})
	_ = c.Shutdown() // stations close their stores on the way out

	// A restart is the same constructor over the same directories: residents
	// come back from disk, not over the wire.
	s1, _ = dimatch.OpenWALStore(dir1, dimatch.WALOptions{})
	s2, _ = dimatch.OpenWALStore(dir2, dimatch.WALOptions{})
	c, _ = dimatch.NewCluster(dimatch.Options{}, 3,
		dimatch.Member{ID: 1, Store: s1}, dimatch.Member{ID: 2, Store: s2})
	defer c.Shutdown()

	out, _ := c.Search(ctx, []dimatch.Query{
		{ID: 1, Locals: []dimatch.Pattern{{1, 2, 3}, {2, 2, 2}}},
	})
	// out.Persons(1) still contains person 7 — recovered from disk.
	// ---- end of snippet ----

	found := false
	for _, p := range out.Persons(1) {
		found = found || p == 7
	}
	if !found {
		t.Fatalf("restarted cluster answered %v, README promises person 7 survives the restart", out.Persons(1))
	}
}
