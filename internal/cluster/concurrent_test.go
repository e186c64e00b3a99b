package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dimatch"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// manualCluster builds a data center over explicit pipes: stations 0 and 1
// of the paper scenario run real serve loops, station 2 answers the join
// handshake and its link is then returned unserved, so a test can stall,
// kill or revive it deterministically.
func manualCluster(t *testing.T, opts dimatch.Options) (*dimatch.Cluster, dimatch.Link) {
	t.Helper()
	data := paperScenario()
	links := make(map[uint32]dimatch.Link, 3)
	var silent dimatch.Link
	for _, id := range []uint32{0, 1, 2} {
		center, stationEnd := transport.Pipe(nil, nil)
		links[id] = center
		if id == 2 {
			silent = stationEnd
			answerHandshake(silent, id, data[id])
			continue
		}
		id, stationEnd := id, stationEnd
		go func() {
			if err := dimatch.ServeStation(id, data[id], stationEnd); err != nil {
				t.Errorf("station %d: %v", id, err)
			}
		}()
	}
	c, err := dimatch.NewCluster(opts, 3, linkMembers(links)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	return c, silent
}

// answerHandshake answers the one stats frame a join sends over a station's
// link, as a station holding locals would, and then leaves the link
// unserved: the station goes silent right after joining.
func answerHandshake(link dimatch.Link, id uint32, locals map[dimatch.PersonID]dimatch.Pattern) {
	sr := wire.StatsReply{Station: id, Residents: uint64(len(locals))}
	for _, l := range locals {
		sr.Length = uint32(len(l))
	}
	go func() {
		if msg, err := link.Recv(); err == nil {
			_ = link.Send(wire.EncodeStatsReply(sr).WithRequest(msg.Request))
		}
	}()
}

// TestConcurrentSearchesMatchSequential is the redesign's core guarantee:
// many searches with different strategies and per-call options over one
// cluster — and, for the top-1 and score-threshold Options, over two more —
// return exactly what they return sequentially — no frame interleaving, no
// cross-talk. Run under -race.
func TestConcurrentSearchesMatchSequential(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	top1Opts, minScoreOpts := testOptions(), testOptions()
	top1Opts.TopK = 1
	minScoreOpts.MinScore = 0.9
	top1 := startCluster(t, top1Opts, paperScenario())
	minScore := startCluster(t, minScoreOpts, paperScenario())
	queries := []dimatch.Query{paperQuery()}

	type config struct {
		c    *dimatch.Cluster
		opts []dimatch.SearchOption
	}
	configs := map[string]config{
		"wbf":          {c, []dimatch.SearchOption{dimatch.WithStrategy(dimatch.StrategyWBF)}},
		"wbf-top1":     {top1, []dimatch.SearchOption{dimatch.WithStrategy(dimatch.StrategyWBF)}},
		"wbf-minscore": {minScore, []dimatch.SearchOption{dimatch.WithStrategy(dimatch.StrategyWBF)}},
		"wbf-verify":   {c, []dimatch.SearchOption{dimatch.WithStrategy(dimatch.StrategyWBF), dimatch.WithVerify(true)}},
		"bf":           {c, []dimatch.SearchOption{dimatch.WithStrategy(dimatch.StrategyBF)}},
		"naive":        {c, []dimatch.SearchOption{dimatch.WithStrategy(dimatch.StrategyNaive)}},
	}

	// Sequential baseline.
	want := make(map[string][]dimatch.PersonID, len(configs))
	for name, cfg := range configs {
		out, err := cfg.c.Search(context.Background(), queries, cfg.opts...)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		want[name] = out.Persons(1)
	}

	// The same configs, many in flight at once.
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(configs))
	for r := 0; r < rounds; r++ {
		for name, cfg := range configs {
			name, cfg := name, cfg
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := cfg.c.Search(context.Background(), queries, cfg.opts...)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", name, err)
					return
				}
				got := out.Persons(1)
				if len(got) != len(want[name]) {
					errs <- fmt.Errorf("%s: concurrent %v != sequential %v", name, got, want[name])
					return
				}
				for i := range got {
					if got[i] != want[name][i] {
						errs <- fmt.Errorf("%s: concurrent %v != sequential %v", name, got, want[name])
						return
					}
				}
				if out.Cost.StationsFailed != 0 {
					errs <- fmt.Errorf("%s: %d stations failed", name, out.Cost.StationsFailed)
				}
				if out.Cost.BytesDown == 0 || out.Cost.BytesUp == 0 {
					errs <- fmt.Errorf("%s: per-search traffic not tallied: %+v", name, out.Cost)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPerSearchCostIsolation checks that concurrent searches tally only
// their own traffic: a search's dissemination count is exactly one message
// per live station per round, however many other searches are in flight.
func TestPerSearchCostIsolation(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	queries := []dimatch.Query{paperQuery()}
	stations := uint64(c.Stations())

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := c.Search(context.Background(), queries)
			if err != nil {
				t.Error(err)
				return
			}
			if out.Cost.MessagesDown != stations {
				t.Errorf("MessagesDown = %d, want %d (own traffic only)", out.Cost.MessagesDown, stations)
			}
			if out.Cost.MessagesUp != stations {
				t.Errorf("MessagesUp = %d, want %d (own traffic only)", out.Cost.MessagesUp, stations)
			}
		}()
	}
	wg.Wait()
}

// TestSearchCancellationPromptAndClean cancels a search stalled on a silent
// station and checks (a) it returns promptly with both sentinel and context
// errors, and (b) the links survive: once the station comes alive, the next
// search succeeds even though the stale reply still arrives and must be
// dropped.
func TestSearchCancellationPromptAndClean(t *testing.T) {
	c, silent := manualCluster(t, testOptions())
	queries := []dimatch.Query{paperQuery()}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Search(ctx, queries, dimatch.WithStrategy(dimatch.StrategyWBF))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the fan-out reach the silent station
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, dimatch.ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled in the chain", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled search did not return within one fan-out round")
	}

	// Revive station 2: it first drains the abandoned query (its reply is
	// dropped by the dispatcher), then serves the new search.
	go func() {
		if err := dimatch.ServeStation(2, paperScenario()[2], silent); err != nil {
			t.Errorf("revived station: %v", err)
		}
	}()
	out, err := c.Search(context.Background(), queries, dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		t.Fatalf("search after cancellation: %v", err)
	}
	if out.Cost.StationsFailed != 0 {
		t.Fatalf("StationsFailed = %d after revival", out.Cost.StationsFailed)
	}
	found := false
	for _, p := range out.Persons(1) {
		if p == 11 { // person 11 lives only on station 2
			found = true
		}
	}
	if !found {
		t.Fatalf("station 2's person 11 missing after revival: %v", out.Persons(1))
	}
}

// TestSearchAlreadyCancelled checks the fast path: a context cancelled
// before the call returns immediately without touching the links.
func TestSearchAlreadyCancelled(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Search(ctx, []dimatch.Query{paperQuery()})
	if !errors.Is(err, dimatch.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

// TestKillStationMidSearch severs a station while a search is blocked on
// its reply: the search must complete degraded (not hang, not fail), count
// the dead station, and keep the surviving stations' results.
func TestKillStationMidSearch(t *testing.T) {
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
	if err := c.KillStation(2); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-resc:
		if r.err != nil {
			t.Fatalf("degraded search failed: %v", r.err)
		}
		if r.out.Cost.StationsFailed != 1 {
			t.Fatalf("StationsFailed = %d, want 1", r.out.Cost.StationsFailed)
		}
		// Person 10 splits across the two surviving stations: still found.
		found := false
		for _, p := range r.out.Persons(1) {
			if p == 10 {
				found = true
			}
			if p == 11 {
				t.Fatal("person 11 lives only on the killed station; must be lost")
			}
		}
		if !found {
			t.Fatalf("surviving stations' person 10 missing: %v", r.out.Persons(1))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("search hung on the killed station")
	}

	// The cluster stays usable.
	out, err := c.Search(context.Background(), queries)
	if err != nil {
		t.Fatalf("search after kill: %v", err)
	}
	if out.Cost.StationsFailed != 1 {
		t.Fatalf("StationsFailed = %d on follow-up, want 1", out.Cost.StationsFailed)
	}
}

// TestShutdownDuringSearchReturnsClosed covers the Search/Shutdown race: a
// search in flight when Shutdown lands must surface ErrClusterClosed, not
// an empty successful outcome.
func TestShutdownDuringSearchReturnsClosed(t *testing.T) {
	center, stationEnd := transport.Pipe(nil, nil)
	answerHandshake(stationEnd, 0, paperScenario()[0]) // then never served: search stalls
	c, err := dimatch.NewCluster(testOptions(), 3, dimatch.Member{ID: 0, Link: center})
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := c.Search(context.Background(), []dimatch.Query{paperQuery()})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // the fan-out is now awaiting a reply
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, dimatch.ErrClusterClosed) {
			t.Fatalf("err = %v, want ErrClusterClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("search hung across Shutdown")
	}
}

// TestSearchSentinelErrors pins the typed error surface.
func TestSearchSentinelErrors(t *testing.T) {
	c := startCluster(t, testOptions(), paperScenario())
	if _, err := c.Search(context.Background(), nil); !errors.Is(err, dimatch.ErrNoQueries) {
		t.Fatalf("empty batch err = %v, want ErrNoQueries", err)
	}
	badLen := dimatch.Query{ID: 1, Locals: []dimatch.Pattern{{1, 2}}}
	if _, err := c.Search(context.Background(), []dimatch.Query{badLen}); !errors.Is(err, dimatch.ErrLengthMismatch) {
		t.Fatalf("length mismatch err = %v, want ErrLengthMismatch", err)
	}
	if _, err := c.Search(context.Background(), []dimatch.Query{paperQuery()}, dimatch.WithStrategy(dimatch.Strategy(99))); !errors.Is(err, dimatch.ErrUnknownStrategy) {
		t.Fatalf("unknown strategy err = %v, want ErrUnknownStrategy", err)
	}

	// Shutdown is idempotent, so reusing the helper (whose cleanup shuts
	// down again) is safe.
	closed := startCluster(t, testOptions(), paperScenario())
	if err := closed.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := closed.Search(context.Background(), []dimatch.Query{paperQuery()}); !errors.Is(err, dimatch.ErrClusterClosed) {
		t.Fatalf("closed cluster err = %v, want ErrClusterClosed", err)
	}
}

// TestParseStrategy pins the Strategy.String inverse.
func TestParseStrategy(t *testing.T) {
	for _, s := range []dimatch.Strategy{dimatch.StrategyNaive, dimatch.StrategyBF, dimatch.StrategyWBF} {
		got, err := dimatch.ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if got, err := dimatch.ParseStrategy("  WBF "); err != nil || got != dimatch.StrategyWBF {
		t.Fatalf("case/space-insensitive parse failed: %v, %v", got, err)
	}
	if _, err := dimatch.ParseStrategy("quantum"); !errors.Is(err, dimatch.ErrUnknownStrategy) {
		t.Fatalf("err = %v, want ErrUnknownStrategy", err)
	}
}
