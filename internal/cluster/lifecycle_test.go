package cluster_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dimatch"
	"dimatch/internal/transport"
)

// paperScenario raw storage: 8 persons × 3 values × 8 bytes.
const paperScenarioRawBytes = 8 * 3 * 8

func TestIngestEvictVisibleToSearch(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	ctx := context.Background()
	q := paperQuery()

	// Person 30 splits the query exactly like person 10 — but is not
	// resident yet.
	if err := c.Ingest(ctx, 0, map[dimatch.PersonID]dimatch.Pattern{30: {1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(ctx, 1, map[dimatch.PersonID]dimatch.Pattern{30: {2, 2, 2}}); err != nil {
		t.Fatal(err)
	}
	out, err := c.Search(ctx, []dimatch.Query{q}, dimatch.WithStrategy(dimatch.StrategyWBF), dimatch.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range out.PerQuery[1] {
		if r.Person == 30 {
			found = true
			if r.Score() != 1.0 {
				t.Fatalf("ingested person 30 score = %v, want 1", r.Score())
			}
		}
	}
	if !found {
		t.Fatalf("ingested person 30 not retrieved: %v", out.Persons(1))
	}

	// Evicting one half degrades them to a partial match; evicting both
	// removes them entirely.
	if err := c.Evict(ctx, 1, []dimatch.PersonID{30}); err != nil {
		t.Fatal(err)
	}
	out, err = c.Search(ctx, []dimatch.Query{q}, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.PerQuery[1] {
		if r.Person == 30 && r.Score() == 1.0 {
			t.Fatal("person 30 still scores 1 after half their data was evicted")
		}
	}
	if err := c.Evict(ctx, 0, []dimatch.PersonID{30}); err != nil {
		t.Fatal(err)
	}
	out, err = c.Search(ctx, []dimatch.Query{q}, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range out.Persons(1) {
		if p == 30 {
			t.Fatal("person 30 retrieved after full eviction")
		}
	}
}

func TestIngestReplacesExistingResident(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	ctx := context.Background()

	// Person 13 currently holds {7,1,9} at station 0 and never matches the
	// paper query; replacing their pattern with the query's station-0 half
	// upgrades them to a partial match.
	if err := c.Ingest(ctx, 0, map[dimatch.PersonID]dimatch.Pattern{13: {1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	out, err := c.Search(ctx, []dimatch.Query{paperQuery()}, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range out.PerQuery[1] {
		if r.Person == 13 {
			found = true
			if r.Score() != 0.5 {
				t.Fatalf("replaced person 13 score = %v, want 0.5", r.Score())
			}
		}
	}
	if !found {
		t.Fatalf("person 13 not retrieved after pattern replacement: %v", out.Persons(1))
	}

	// Stats must reflect a replacement, not an insertion.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stations[0].Residents != 4 {
		t.Fatalf("station 0 residents = %d after replacement, want 4", st.Stations[0].Residents)
	}
}

// TestStatsComeFromReplies: a station answers each mutation with its
// figures, so an Ingest or Evict is one frame each way, a link member's join
// is its one stats exchange, Stats never sends a frame, and Stats.Epoch
// moves only with the member set.
func TestStatsComeFromReplies(t *testing.T) {
	// Remote members over metered pipes, so the test can count frames.
	down, up := &dimatch.Meter{}, &dimatch.Meter{}
	serve := func(id uint32, locals map[dimatch.PersonID]dimatch.Pattern) dimatch.Link {
		center, stationEnd := transport.Pipe(down, up)
		go func() { _ = dimatch.ServeStation(id, locals, stationEnd) }()
		return center
	}
	var members []dimatch.Member
	for id, locals := range paperScenario() {
		members = append(members, dimatch.Member{ID: id, Link: serve(id, locals)})
	}
	c, err := dimatch.NewCluster(testOptions(), 3, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	ctx := context.Background()

	stats := func(what string) *dimatch.ClusterStats {
		t.Helper()
		quiet := down.Messages()
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := down.Messages(); got != quiet {
			t.Fatalf("%s: Stats sent %d frames", what, got-quiet)
		}
		return st
	}
	exchange := func(what string, mutate func() error) {
		t.Helper()
		d, u := down.Messages(), up.Messages()
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		if dd, du := down.Messages()-d, up.Messages()-u; dd != 1 || du != 1 {
			t.Fatalf("%s: %d frames down, %d up; want 1 and 1", what, dd, du)
		}
	}

	st := stats("after NewCluster")
	wantResidents := map[uint32]int{0: 4, 1: 2, 2: 2}
	if len(st.Stations) != 3 || st.StationsFailed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for _, s := range st.Stations {
		if s.Residents != wantResidents[s.Station] {
			t.Fatalf("station %d residents = %d, want %d", s.Station, s.Residents, wantResidents[s.Station])
		}
		if s.StorageBytes != 8*3*uint64(s.Residents) {
			t.Fatalf("station %d storage = %d", s.Station, s.StorageBytes)
		}
		if s.PatternLength != 3 {
			t.Fatalf("station %d length = %d, want 3", s.Station, s.PatternLength)
		}
	}
	if st.TotalResidents() != 8 || st.TotalStorageBytes() != paperScenarioRawBytes {
		t.Fatalf("totals = %d residents, %d bytes", st.TotalResidents(), st.TotalStorageBytes())
	}
	epoch := st.Epoch

	exchange("ingest", func() error {
		return c.Ingest(ctx, 1, map[dimatch.PersonID]dimatch.Pattern{40: {9, 9, 9}})
	})
	st = stats("after an ingest")
	if st.Epoch != epoch {
		t.Fatalf("ingest moved the epoch %d -> %d", epoch, st.Epoch)
	}
	if st.TotalResidents() != 9 || st.TotalStorageBytes() != paperScenarioRawBytes+24 {
		t.Fatalf("post-ingest totals = %d residents, %d bytes", st.TotalResidents(), st.TotalStorageBytes())
	}

	// The returned snapshot is the caller's to mutate: scribbling on it
	// must not corrupt the figures table.
	st.Stations[0].StorageBytes = 1
	if st := stats("after a scribble"); st.Stations[0].StorageBytes == 1 {
		t.Fatal("caller mutation leaked into the figures table")
	}

	exchange("evict", func() error { return c.Evict(ctx, 0, []dimatch.PersonID{10, 11}) })
	st = stats("after an evict")
	if st.Epoch != epoch || st.TotalResidents() != 8 || st.TotalStorageBytes() != paperScenarioRawBytes {
		t.Fatalf("post-evict snapshot %+v (epoch was %d), want 8 residents, %d bytes", st, epoch, paperScenarioRawBytes)
	}

	if err := c.KillStation(2); err != nil {
		t.Fatal(err)
	}
	st = stats("after a kill")
	if st.Epoch != epoch || st.StationsFailed != 1 || st.TotalResidents() != 6 {
		t.Fatalf("post-kill snapshot %+v (epoch was %d), want station 2 failed", st, epoch)
	}

	// A link member's join is one exchange: the stats handshake.
	joining := serve(3, map[dimatch.PersonID]dimatch.Pattern{50: {1, 1, 1}})
	exchange("join", func() error { return c.AddStation(ctx, dimatch.Member{ID: 3, Link: joining}) })
	st = stats("after a join")
	if st.Epoch <= epoch || st.TotalResidents() != 7 {
		t.Fatalf("post-join snapshot %+v (epoch was %d), want a later epoch and 7 residents", st, epoch)
	}
	epoch = st.Epoch
	if err := c.RemoveStation(ctx, 3); err != nil {
		t.Fatal(err)
	}
	st = stats("after a removal")
	if st.Epoch <= epoch || st.TotalResidents() != 6 || len(st.Stations) != 2 {
		t.Fatalf("post-removal snapshot %+v (epoch was %d), want a later epoch and station 3 gone", st, epoch)
	}
}

// TestStatsExactAfterConcurrentIngests: concurrent mutations of one station
// hand their replies over in any order, and Stats must still report the
// figures after the last one applied, never an earlier reply's.
func TestStatsExactAfterConcurrentIngests(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	ctx := context.Background()
	const rounds, writers = 300, 4
	want := len(paperScenario()[0])
	next := dimatch.PersonID(1000)
	for round := 0; round < rounds; round++ {
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			p := next
			next++
			go func() { errs <- c.Ingest(ctx, 0, map[dimatch.PersonID]dimatch.Pattern{p: {1, 2, 3}}) }()
		}
		for w := 0; w < writers; w++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		want += writers
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Stations[0]; got.Station != 0 || got.Residents != want {
			t.Fatalf("round %d: Stats reports %+v, want station 0 with %d residents", round, got, want)
		}
	}
}

// TestStationRawBytesMatchesOverLinks pins the satellite fix: an in-process
// cluster and a link-backed cluster over the same data report the same
// StationRawBytes, both sourced from the stations' own stats replies.
func TestStationRawBytesMatchesOverLinks(t *testing.T) {
	ctx := context.Background()
	q := []dimatch.Query{paperQuery()}

	inProc := startCluster(t, testOptions(), paperScenario())
	outA, err := inProc.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	data := paperScenario()
	links := make(map[uint32]dimatch.Link, len(data))
	for id := range data {
		center, stationEnd := transport.Pipe(nil, nil)
		links[id] = center
		id, stationEnd := id, stationEnd
		go func() {
			if err := dimatch.ServeStation(id, data[id], stationEnd); err != nil {
				t.Errorf("station %d: %v", id, err)
			}
		}()
	}
	linked, err := dimatch.NewCluster(testOptions(), 3, linkMembers(links)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = linked.Shutdown() })
	outB, err := linked.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	if outA.Cost.StationRawBytes != paperScenarioRawBytes {
		t.Fatalf("in-process StationRawBytes = %d, want %d", outA.Cost.StationRawBytes, paperScenarioRawBytes)
	}
	if outB.Cost.StationRawBytes != paperScenarioRawBytes {
		t.Fatalf("link-backed StationRawBytes = %d, want %d", outB.Cost.StationRawBytes, paperScenarioRawBytes)
	}
}

// TestConcurrentIngestSearch races mutations against searches under -race:
// no search may error, and residents never touched by the churn stay
// retrievable throughout.
func TestConcurrentIngestSearch(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	ctx := context.Background()
	queries := []dimatch.Query{paperQuery()}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := c.Ingest(ctx, 0, map[dimatch.PersonID]dimatch.Pattern{50: {2, 2, 2}}); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			if err := c.Evict(ctx, 0, []dimatch.PersonID{50}); err != nil {
				t.Errorf("evict: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				out, err := c.Search(ctx, queries, dimatch.WithStrategy(dimatch.StrategyWBF))
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				has10, has11 := false, false
				for _, p := range out.Persons(1) {
					has10 = has10 || p == 10
					has11 = has11 || p == 11
				}
				if !has10 || !has11 {
					t.Errorf("stable residents lost mid-churn: %v", out.Persons(1))
					return
				}
				if out.Cost.StationsFailed != 0 {
					t.Errorf("StationsFailed = %d during pure ingest churn", out.Cost.StationsFailed)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRemoveStationDuringFanOut removes a station while a search is blocked
// on its reply: the search completes degraded — the departure is counted in
// StationsFailed, never surfaced as an error — and later searches fan out
// to the shrunken membership only.
func TestRemoveStationDuringFanOut(t *testing.T) {
	c, _ := manualCluster(t, testOptions())
	queries := []dimatch.Query{paperQuery()}

	type result struct {
		out *dimatch.Outcome
		err error
	}
	resc := make(chan result, 1)
	go func() {
		out, err := c.Search(context.Background(), queries, dimatch.WithStrategy(dimatch.StrategyWBF))
		resc <- result{out, err}
	}()
	time.Sleep(10 * time.Millisecond) // the fan-out is now waiting on station 2
	if err := c.RemoveStation(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-resc:
		if r.err != nil {
			t.Fatalf("search across removal failed: %v", r.err)
		}
		if r.out.Cost.StationsFailed != 1 {
			t.Fatalf("StationsFailed = %d, want 1 (the removed station)", r.out.Cost.StationsFailed)
		}
		if r.out.Cost.MessagesDown != 2 {
			t.Fatalf("MessagesDown = %d, want 2 (pinned to the 3-station epoch, one removed)", r.out.Cost.MessagesDown)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("search hung across RemoveStation")
	}

	if got := c.Stations(); got != 2 {
		t.Fatalf("Stations() = %d after removal, want 2", got)
	}
	out, err := c.Search(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost.StationsFailed != 0 || out.Cost.MessagesDown != 2 {
		t.Fatalf("post-removal search: failed=%d down=%d, want 0/2", out.Cost.StationsFailed, out.Cost.MessagesDown)
	}
}

func TestLifecycleSentinelErrors(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	ctx := context.Background()

	if err := c.Ingest(ctx, 99, map[dimatch.PersonID]dimatch.Pattern{1: {1, 2, 3}}); !errors.Is(err, dimatch.ErrUnknownStation) {
		t.Fatalf("ingest unknown station err = %v, want ErrUnknownStation", err)
	}
	if err := c.Ingest(ctx, 0, map[dimatch.PersonID]dimatch.Pattern{1: {1, 2}}); !errors.Is(err, dimatch.ErrLengthMismatch) {
		t.Fatalf("ingest short pattern err = %v, want ErrLengthMismatch", err)
	}
	if err := c.Evict(ctx, 99, []dimatch.PersonID{1}); !errors.Is(err, dimatch.ErrUnknownStation) {
		t.Fatalf("evict unknown station err = %v, want ErrUnknownStation", err)
	}
	if err := c.AddStation(ctx, dimatch.Member{ID: 0}); !errors.Is(err, dimatch.ErrStationExists) {
		t.Fatalf("duplicate AddStation err = %v, want ErrStationExists", err)
	}
	if err := c.AddStation(ctx, dimatch.Member{ID: 7, Patterns: map[dimatch.PersonID]dimatch.Pattern{1: {1, 2, 3, 4}}}); !errors.Is(err, dimatch.ErrLengthMismatch) {
		t.Fatalf("AddStation long pattern err = %v, want ErrLengthMismatch", err)
	}
	if err := c.RemoveStation(ctx, 99); !errors.Is(err, dimatch.ErrUnknownStation) {
		t.Fatalf("remove unknown station err = %v, want ErrUnknownStation", err)
	}

	// No-ops succeed without touching the wire.
	if err := c.Ingest(ctx, 0, nil); err != nil {
		t.Fatalf("empty ingest: %v", err)
	}
	if err := c.Evict(ctx, 0, nil); err != nil {
		t.Fatalf("empty evict: %v", err)
	}

	closed := startCluster(t, testOptions(), paperScenario())
	if err := closed.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := closed.Ingest(ctx, 0, map[dimatch.PersonID]dimatch.Pattern{1: {1, 2, 3}}); !errors.Is(err, dimatch.ErrClusterClosed) {
		t.Fatalf("ingest after shutdown err = %v, want ErrClusterClosed", err)
	}
	if err := closed.AddStation(ctx, dimatch.Member{ID: 9}); !errors.Is(err, dimatch.ErrClusterClosed) {
		t.Fatalf("AddStation after shutdown err = %v, want ErrClusterClosed", err)
	}
	if err := closed.RemoveStation(ctx, 0); !errors.Is(err, dimatch.ErrClusterClosed) {
		t.Fatalf("RemoveStation after shutdown err = %v, want ErrClusterClosed", err)
	}
	if _, err := closed.Stats(ctx); !errors.Is(err, dimatch.ErrClusterClosed) {
		t.Fatalf("Stats after shutdown err = %v, want ErrClusterClosed", err)
	}
}

func TestAddStationLinkHandshake(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	ctx := context.Background()

	// A joining station whose resident patterns have the wrong length is
	// rejected by the stats handshake.
	center, stationEnd := transport.Pipe(nil, nil)
	go func() {
		_ = dimatch.ServeStation(9, map[dimatch.PersonID]dimatch.Pattern{70: {1, 2, 3, 4}}, stationEnd)
	}()
	if err := c.AddStation(ctx, dimatch.Member{ID: 9, Link: center}); !errors.Is(err, dimatch.ErrLengthMismatch) {
		t.Fatalf("mismatched link err = %v, want ErrLengthMismatch", err)
	}

	// A compatible one joins and serves searches.
	center, stationEnd = transport.Pipe(nil, nil)
	go func() {
		_ = dimatch.ServeStation(9, map[dimatch.PersonID]dimatch.Pattern{70: {3, 4, 5}}, stationEnd)
	}()
	if err := c.AddStation(ctx, dimatch.Member{ID: 9, Link: center}); err != nil {
		t.Fatal(err)
	}
	q := dimatch.Query{ID: 2, Locals: []dimatch.Pattern{{3, 4, 5}}}
	out, err := c.Search(ctx, []dimatch.Query{q}, dimatch.WithStrategy(dimatch.StrategyWBF), dimatch.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range out.Persons(2) {
		found = found || p == 70
	}
	if !found {
		t.Fatalf("linked station's resident not retrieved: %v", out.Persons(2))
	}
}

// TestLiveMutationEndToEnd is the acceptance scenario: on a running cluster,
// Ingest a new person's first piece and AddStation a station holding the
// second, then prove a WBF search with verification finds the target whose
// pattern pieces span the new station — while a search that started before
// any mutation completes successfully against its own (pre-mutation) epoch.
func TestLiveMutationEndToEnd(t *testing.T) {
	c, silent := manualCluster(t, testOptions()) // stations 0,1 served; 2 silent
	ctx := context.Background()

	// Search A pins the 3-station epoch and stalls on silent station 2.
	type result struct {
		out *dimatch.Outcome
		err error
	}
	resA := make(chan result, 1)
	go func() {
		out, err := c.Search(ctx, []dimatch.Query{paperQuery()}, dimatch.WithStrategy(dimatch.StrategyWBF))
		resA <- result{out, err}
	}()
	time.Sleep(10 * time.Millisecond) // A's fan-out is now in flight

	// Mutations land while A is in flight: person 20's pieces will span the
	// ingested store (station 0) and the brand-new station 3.
	if err := c.Ingest(ctx, 0, map[dimatch.PersonID]dimatch.Pattern{20: {5, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddStation(ctx, dimatch.Member{ID: 3, Patterns: map[dimatch.PersonID]dimatch.Pattern{20: {1, 4, 2}}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stations(); got != 4 {
		t.Fatalf("Stations() = %d after AddStation, want 4", got)
	}

	// Revive station 2 so both the pinned search and new searches can hear
	// from it.
	go func() {
		if err := dimatch.ServeStation(2, paperScenario()[2], silent); err != nil {
			t.Errorf("revived station: %v", err)
		}
	}()

	// Search B, issued after the mutations, runs over the 4-station epoch
	// and — with verification — finds the spanning target exactly. Routing
	// is forced off: the message-count assertions below pin full fan-out
	// coverage of the new epoch (summary routing would legitimately skip
	// the stations that cannot answer; routing_test.go covers that).
	qB := dimatch.Query{ID: 2, Locals: []dimatch.Pattern{{5, 0, 1}, {1, 4, 2}}}
	outB, err := c.Search(ctx, []dimatch.Query{qB}, dimatch.WithStrategy(dimatch.StrategyWBF), dimatch.WithVerify(true), dimatch.WithRouting(dimatch.RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	if outB.Cost.StationsFailed != 0 {
		t.Fatalf("B StationsFailed = %d", outB.Cost.StationsFailed)
	}
	found := false
	for _, r := range outB.PerQuery[2] {
		if r.Person == 20 {
			found = true
			if r.Score() != 1.0 {
				t.Fatalf("spanning target score = %v, want 1 (verified)", r.Score())
			}
		}
	}
	if !found {
		t.Fatalf("target spanning ingest + new station not retrieved: %v", outB.Persons(2))
	}
	// Both fan-out rounds (query + verification fetch) covered 4 stations.
	if outB.Cost.MessagesDown != 8 {
		t.Fatalf("B MessagesDown = %d, want 8 (two rounds over four stations)", outB.Cost.MessagesDown)
	}

	// Search A completes against its own epoch: three stations, no
	// failures, untouched by the concurrent membership change.
	select {
	case r := <-resA:
		if r.err != nil {
			t.Fatalf("pre-mutation search failed: %v", r.err)
		}
		if r.out.Cost.MessagesDown != 3 {
			t.Fatalf("A MessagesDown = %d, want 3 (pinned pre-mutation epoch)", r.out.Cost.MessagesDown)
		}
		if r.out.Cost.StationsFailed != 0 {
			t.Fatalf("A StationsFailed = %d", r.out.Cost.StationsFailed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pre-mutation search did not complete")
	}
}
