package dimatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dimatch/internal/store"
	"dimatch/internal/store/wal"
)

// streamOptions sizes the filter explicitly so the small populations of
// these tests cannot hit Bloom false positives.
func streamOptions() Options {
	return Options{Params: Params{Bits: 1 << 16, Hashes: 4, Samples: 4, Epsilon: 0, Seed: 1}}
}

// newStreamCluster stands up an empty in-process cluster.
func newStreamCluster(t *testing.T, stations []uint32, length int) *Cluster {
	t.Helper()
	members := make([]Member, len(stations))
	for i, id := range stations {
		members[i] = Member{ID: id}
	}
	c, err := NewCluster(streamOptions(), length, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	return c
}

// searchPersons runs one single-local query and returns the retrieved set.
func searchPersons(t *testing.T, c *Cluster, local Pattern) map[PersonID]Result {
	t.Helper()
	out, err := c.Search(context.Background(), []Query{
		{ID: 1, Locals: []Pattern{local}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[PersonID]Result, len(out.PerQuery[1]))
	for _, r := range out.PerQuery[1] {
		got[r.Person] = r
	}
	return got
}

func TestStreamSubmitFlushSearch(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2, 3, 4}, 4)
	in, err := c.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()

	const n = 200
	for p := PersonID(100); p < 100+n; p++ {
		if err := in.Submit(ctx, p, Pattern{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	got := searchPersons(t, c, Pattern{1, 2, 3, 4})
	if len(got) != n {
		t.Fatalf("retrieved %d persons, want %d", len(got), n)
	}
	for p, r := range got {
		// Streamed patterns are replica-managed: the aggregation dedupes
		// copies instead of summing them (a sum of 2 would be deleted as
		// over-matched), and counts one copy's station.
		if r.Score() != 1.0 || r.Stations != 1 {
			t.Fatalf("person %d scored %.3f from %d stations, want 1 from one copy", p, r.Score(), r.Stations)
		}
	}
	// The replicas are counted where they live: in the stores.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := n * DefaultReplication; st.TotalResidents() != want {
		t.Fatalf("stations hold %d residents, want %d persons × %d replicas", st.TotalResidents(), n, DefaultReplication)
	}
	if got := c.Placed(); got != n {
		t.Fatalf("Placed() = %d, want %d (streamed persons are placement-managed)", got, n)
	}

	rep := in.Report()
	if rep.Submitted != n || rep.Accepted != n || rep.Rejected != 0 {
		t.Fatalf("accounting = %+v, want %d submitted and accepted", rep, n)
	}
	if rep.FlushedPatterns != n {
		t.Fatalf("FlushedPatterns = %d, want %d", rep.FlushedPatterns, n)
	}
	if rep.FlushFailures != 0 {
		t.Fatalf("FlushFailures = %d, want 0", rep.FlushFailures)
	}
	if rep.Flushes == 0 {
		t.Fatalf("Flushes = 0 after %d placed patterns", n)
	}
}

// assertExactReplicas fails unless each of persons 1..n holds exactly
// min(R, alive) copies of want on the alive stations, and nothing else is
// resident: the state a membership change's heal owes every acked person
// once the change and a Flush have returned.
func assertExactReplicas(t *testing.T, c *Cluster, n int, want Pattern) {
	t.Helper()
	alive, _ := c.aliveMembers()
	r := min(DefaultReplication, len(alive))
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalResidents() != n*r {
		t.Fatalf("alive stations hold %d residents, want %d persons × %d replicas", st.TotalResidents(), n, r)
	}
	got := searchPersons(t, c, want)
	if len(got) != n {
		t.Fatalf("retrieved %d persons, want all %d acked", len(got), n)
	}
	for p, res := range got {
		if res.Score() != 1.0 || res.Stations != 1 {
			t.Fatalf("person %d scored %.3f from %d stations, want 1 from one copy", p, res.Score(), res.Stations)
		}
	}
}

func TestStreamValidationAndClose(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2}, 4)
	in, err := c.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := in.Submit(ctx, 1, Pattern{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("short pattern error = %v, want ErrLengthMismatch", err)
	}
	// All-zero patterns are skipped silently (stations drop them anyway).
	if err := in.Submit(ctx, 2, Pattern{0, 0, 0, 0}); err != nil {
		t.Fatalf("all-zero pattern error = %v, want nil", err)
	}
	rep := in.Report()
	if rep.Rejected != 2 || rep.Accepted != 0 {
		t.Fatalf("accounting = %+v, want 2 rejected, 0 accepted", rep)
	}

	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
	if err := in.Submit(ctx, 3, Pattern{1, 2, 3, 4}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Submit after Close = %v, want ErrStreamClosed", err)
	}
	if err := in.Flush(ctx); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Flush after Close = %v, want ErrStreamClosed", err)
	}
}

// TestStreamRejectsValueOutOfRange: a pattern holding 2³¹ or −2³¹−1 is
// refused at Submit with ErrValueRange and accounted rejected, and
// nothing of it reaches a station; the int32 edges are accepted and applied.
func TestStreamRejectsValueOutOfRange(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2}, 4)
	in, err := c.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()
	for i, bad := range []Pattern{{1, 1 << 31, 1, 1}, {-(1 << 31) - 1, 1, 1, 1}} {
		if err := in.Submit(ctx, PersonID(i+1), bad); !errors.Is(err, ErrValueRange) {
			t.Fatalf("Submit of %v = %v, want ErrValueRange", bad, err)
		}
	}
	if err := in.Submit(ctx, 3, Pattern{math.MaxInt32, math.MinInt32, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if rep := in.Report(); rep.Rejected != 2 || rep.Accepted != 1 {
		t.Fatalf("accounting = %+v, want 2 rejected, 1 accepted", rep)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Placed() != 1 || st.TotalResidents() != min(2, DefaultReplication) {
		t.Fatalf("%d placed, %d residents; want the one accepted person and its copies", c.Placed(), st.TotalResidents())
	}
}

// gatedStore is an in-memory store whose appends wait for gate to close:
// a station over it holds every ingest ack, and with it the flush, until
// the test opens the gate.
type gatedStore struct {
	Store
	gate chan struct{}
}

func (s *gatedStore) AppendCells(b store.CellBatch) error {
	<-s.gate
	return s.Store.AppendCells(b)
}

// TestStreamBlockAccounting saturates the pipeline: every station holds its
// ingest acks, so the first flush stays out while producers fill the queue.
// At most one batch and one queue of distinct persons fit before a Submit
// must wait, so Blocked is positive; nothing is dropped, every submission
// lands, and Accepted + Rejected == Submitted exactly.
func TestStreamBlockAccounting(t *testing.T) {
	gate := make(chan struct{})
	members := make([]Member, 2)
	for i := range members {
		members[i] = Member{ID: uint32(i + 1), Store: &gatedStore{Store: store.NewMemory(), gate: gate}}
	}
	c, err := NewCluster(streamOptions(), 4, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	in, err := c.Stream(StreamOptions{Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()

	// Open the gate once a producer has waited, or fail after a bound.
	opened := make(chan struct{})
	go func() {
		defer close(opened)
		defer close(gate)
		for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
			if in.Report().Blocked > 0 {
				return
			}
		}
	}()
	const n = flushBatch + queueCap + 64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				p := PersonID(1 + g*(n/4) + i)
				if err := in.Submit(ctx, p, Pattern{2, 2, 2, 2}); err != nil {
					t.Errorf("Submit failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-opened
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	rep := in.Report()
	if rep.Accepted != n || rep.Submitted != n {
		t.Fatalf("accounting = %+v, want %d accepted", rep, n)
	}
	if rep.Accepted+rep.Rejected != rep.Submitted {
		t.Fatalf("accounting broken: accepted %d + rejected %d != submitted %d", rep.Accepted, rep.Rejected, rep.Submitted)
	}
	if rep.Blocked == 0 {
		t.Fatalf("Blocked = 0 over %d submissions while the first flush was held; expected waits", n)
	}
	if rep.FlushFailures != 0 {
		t.Fatalf("FlushFailures = %d, want 0", rep.FlushFailures)
	}
	got := searchPersons(t, c, Pattern{2, 2, 2, 2})
	if len(got) != n {
		t.Fatalf("retrieved %d persons, want %d", len(got), n)
	}
}

// TestStreamRemoveStationMidStream: removing stations under sustained
// ingest must not lose a single acked pattern, and once the removal and a
// Flush have returned every person is back at exactly R copies — the
// removal's heal runs after any flush already in flight, so nothing is left
// to settle later. The producer flushes every 8 submissions, so many small
// Place calls run around the removal.
func TestStreamRemoveStationMidStream(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2, 3, 4}, 4)
	in, err := c.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()

	const n = 600
	errs := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := PersonID(1); p <= n; p++ {
			err := in.Submit(ctx, p, Pattern{1, 2, 3, 4})
			if err == nil && p%8 == 0 {
				err = in.Flush(ctx)
			}
			if err != nil {
				select {
				case errs <- fmt.Errorf("submit %d: %w", p, err):
				default:
				}
				return
			}
		}
	}()

	// Remove a station mid-stream, then a second one once the stream is
	// quiet: a person whose surviving copy sat on station 4 would go down
	// with it unless the first removal's heal already restored R.
	time.Sleep(2 * time.Millisecond)
	if err := c.RemoveStation(ctx, 2); err != nil {
		t.Fatal(err)
	}
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	assertExactReplicas(t, c, n, Pattern{1, 2, 3, 4})
	if err := c.RemoveStation(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	assertExactReplicas(t, c, n, Pattern{1, 2, 3, 4})

	rep := in.Report()
	if rep.Accepted != n {
		t.Fatalf("accepted %d, want %d", rep.Accepted, n)
	}
	if rep.FlushFailures != 0 {
		t.Fatalf("FlushFailures = %d; every acked pattern must survive the removals", rep.FlushFailures)
	}
}

// TestStreamSearchInterleaving runs sustained ingest, concurrent searches
// and a station kill together — the -race exercise for the whole pipeline.
// Every search must see full recall over the prefix known flushed when it
// started, and the kill, landing while Submit is still feeding the
// pipeline, may cost neither the cohort flushed before it nor the cohort
// streamed across it a single acked copy.
func TestStreamSearchInterleaving(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2, 3, 4, 5}, 4)
	in, err := c.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()

	const n = 400
	// Flush checkpoints: after each hundred, barrier and record the prefix.
	var mu sync.Mutex
	flushed := PersonID(0)
	stop := make(chan struct{})
	var searchers sync.WaitGroup
	for w := 0; w < 3; w++ {
		searchers.Add(1)
		go func() {
			defer searchers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				want := flushed
				mu.Unlock()
				out, err := c.Search(context.Background(), []Query{
					{ID: 1, Locals: []Pattern{{1, 2, 3, 4}}},
				})
				if err != nil {
					t.Errorf("concurrent search failed: %v", err)
					return
				}
				got := make(map[PersonID]bool, len(out.PerQuery[1]))
				for _, r := range out.PerQuery[1] {
					got[r.Person] = true
				}
				for p := PersonID(1); p <= want; p++ {
					if !got[p] {
						t.Errorf("person %d flushed before the search but not retrieved", p)
						return
					}
				}
			}
		}()
	}

	// The warm cohort is flushed before the kill. The kill itself starts 50
	// submissions past that barrier, so the pipeline holds submissions not
	// yet flushed, and runs beside the Submit loop streaming the rest.
	const warm, killAt = 100, 150
	killErr := make(chan error, 1)
	for p := PersonID(1); p <= n; p++ {
		if err := in.Submit(ctx, p, Pattern{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		if p%100 == 0 {
			if err := in.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			flushed = p
			mu.Unlock()
		}
		if p == killAt {
			go func() { killErr <- c.KillStation(3) }()
		}
	}
	if err := <-killErr; err != nil {
		t.Fatal(err)
	}
	// The kill may have outlasted the loop's last barrier: flush once more
	// behind it.
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	searchers.Wait()
	if t.Failed() {
		return
	}

	rep := in.Report()
	if rep.Accepted != n {
		t.Fatalf("accepted %d, want %d", rep.Accepted, n)
	}
	if rep.FlushFailures != 0 {
		t.Fatalf("pipeline abandoned %d acked copies across the kill", rep.FlushFailures)
	}
	got := searchPersons(t, c, Pattern{1, 2, 3, 4})
	for p := PersonID(1); p <= n; p++ {
		if _, ok := got[p]; !ok {
			cohort := "streamed across the kill"
			if p <= warm {
				cohort = "flushed before the kill"
			}
			t.Fatalf("person %d (%s) lost: retrieved %d of %d", p, cohort, len(got), n)
		}
	}
	if len(got) != n {
		t.Fatalf("retrieved %d persons at the end, want %d", len(got), n)
	}
}

// TestStreamRerouteOnKill pins a kill between two cohorts: the first is
// placed and then loses the victim's copies, the second is submitted just
// before the kill, so it normally sits in the flusher's batch — a batch of
// far fewer than flushBatch persons, held up to flushInterval — when the
// kill lands. Once KillStation and Flush have returned, both cohorts hold
// exactly R copies on the survivors: the kill's heal restored the first, and
// the second was placed over the survivors only or healed with the first.
func TestStreamRerouteOnKill(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2, 3, 4}, 3)
	in, err := c.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()

	const n = 24
	submit := func(from, to PersonID) {
		t.Helper()
		for p := from; p <= to; p++ {
			if err := in.Submit(ctx, p, Pattern{4, 5, 6}); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(1, n)
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	submit(n+1, 2*n)
	if err := c.KillStation(2); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if rep := in.Report(); rep.FlushFailures != 0 {
		t.Fatalf("the kill cost %d acked submissions", rep.FlushFailures)
	}
	assertExactReplicas(t, c, 2*n, Pattern{4, 5, 6})
}

// TestStreamLaterSubmissionWins pins the flush order: a person submitted in
// two consecutive flushes holds the later pattern on every replica, never
// the earlier one, however the two Place calls and their retries fall. A
// Flush after every Submit gives each submission its own Place call.
func TestStreamLaterSubmissionWins(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2, 3, 4}, 3)
	in, err := c.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()

	const n = 40
	for p := PersonID(1); p <= n; p++ {
		for _, pat := range []Pattern{{1, 1, 1}, {2, 2, 2}} {
			if err := in.Submit(ctx, p, pat); err != nil {
				t.Fatal(err)
			}
			if err := in.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rep := in.Report(); rep.Flushes < 2*n {
		t.Fatalf("Flushes = %d, want at least %d: each submission its own Place call", rep.Flushes, 2*n)
	}
	if got := searchPersons(t, c, Pattern{1, 1, 1}); len(got) != 0 {
		t.Fatalf("%d persons still hold their earlier pattern", len(got))
	}
	assertExactReplicas(t, c, n, Pattern{2, 2, 2})
}

// TestStreamAbandonsAfterRetryBudget pins the retry budget: with every
// station dead, each Place call lands nothing, so every accepted person is
// abandoned after maxFlushAttempts calls and Flush returns instead of
// waiting for a placement that can never happen.
func TestStreamAbandonsAfterRetryBudget(t *testing.T) {
	ids := []uint32{1, 2, 3}
	c := newStreamCluster(t, ids, 3)
	in, err := c.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	for _, id := range ids {
		if err := c.KillStation(id); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	const n = 10
	for p := PersonID(1); p <= n; p++ {
		if err := in.Submit(ctx, p, Pattern{7, 8, 9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Flush(ctx); err != nil {
		t.Fatalf("Flush = %v, want nil once the budget is spent", err)
	}
	rep := in.Report()
	if rep.Accepted != n || rep.FlushFailures != n {
		t.Fatalf("Accepted = %d, FlushFailures = %d, want %d abandoned of %d accepted", rep.Accepted, rep.FlushFailures, n, n)
	}
	if rep.FlushedPatterns != 0 {
		t.Fatalf("FlushedPatterns = %d with every station dead, want 0", rep.FlushedPatterns)
	}
	if rep.Flushes == 0 || rep.Flushes%maxFlushAttempts != 0 {
		t.Fatalf("Flushes = %d, want a positive multiple of %d: each batch spends the whole budget", rep.Flushes, maxFlushAttempts)
	}
}

// TestStreamFlushDurable pins the pipeline half of station persistence: a
// flushed (acked) streaming batch is on the station's WAL before the ack, so
// a station hard-stopped after Flush recovers every streamed copy it held —
// without the pipeline resubmitting anything.
func TestStreamFlushDurable(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ids := []uint32{1, 2, 3}
	members := make([]Member, len(ids))
	for i, id := range ids {
		members[i] = Member{ID: id, Store: openStreamWAL(t, dir, id)}
	}
	c, err := NewCluster(streamOptions(), 3, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })

	in, err := c.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	const n = 60
	for p := PersonID(1); p <= n; p++ {
		if err := in.Submit(ctx, p, Pattern{9, 9, 9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Hard-stop and recover every station in turn, so every streamed copy
	// crosses a restart exactly once.
	for _, id := range ids {
		if err := c.KillStation(id); err != nil {
			t.Fatal(err)
		}
		if err := c.RemoveStation(ctx, id); err != nil {
			t.Fatal(err)
		}
		if err := c.AddStation(ctx, Member{ID: id, Store: openStreamWAL(t, dir, id)}); err != nil {
			t.Fatal(err)
		}
	}

	got := searchPersons(t, c, Pattern{9, 9, 9})
	if len(got) != n {
		t.Fatalf("retrieved %d persons after restarts, want %d", len(got), n)
	}
	rep := in.Report()
	if rep.FlushFailures != 0 {
		t.Fatalf("FlushFailures = %d, want 0 — recovery must not need a resubmit", rep.FlushFailures)
	}
}

// TestStreamSubmitRacingClose: submitters over distinct persons race Close.
// A Submit that returned nil was accepted before Close set closed, so
// Close's drain owes it a terminal state: once Close returns, every nil
// Submit is counted in FlushedPatterns + FlushFailures, and Accepted +
// Rejected == Submitted exactly.
func TestStreamSubmitRacingClose(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2, 3}, 4)
	ctx := context.Background()
	for round := 0; round < 10; round++ {
		in, err := c.Stream(StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		const submitters = 4
		var acked [submitters]uint64
		var wg sync.WaitGroup
		for g := range submitters {
			// Submitter g takes every submitters-th person of the round's
			// own range, so no person is submitted twice.
			first := PersonID(round)<<32 | PersonID(g)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := first; ; p += submitters {
					err := in.Submit(ctx, p, Pattern{3, 1, 4, 1})
					if errors.Is(err, ErrStreamClosed) {
						return
					}
					if err != nil {
						t.Errorf("Submit: %v", err)
						return
					}
					acked[g]++
				}
			}()
		}
		time.Sleep(time.Duration(round%4) * time.Millisecond)
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		rep := in.Report()
		wg.Wait()
		var sum uint64
		for _, n := range acked {
			sum += n
		}
		if settled := rep.FlushedPatterns + rep.FlushFailures; settled != sum || rep.Accepted != sum {
			t.Fatalf("round %d: %d Submits returned nil, Accepted %d, FlushedPatterns + FlushFailures = %d once Close returned",
				round, sum, rep.Accepted, settled)
		}
		if rep := in.Report(); rep.Accepted+rep.Rejected != rep.Submitted {
			t.Fatalf("round %d: accepted %d + rejected %d != submitted %d", round, rep.Accepted, rep.Rejected, rep.Submitted)
		}
	}
}

// TestStreamFlushUnderLoad: two producers submit distinct persons without
// pause. A Flush waits only for what was accepted before it, so it returns
// well inside its 3 s budget, and a routed search then finds every person
// accepted before the call. Close under the same load returns, and settles
// every accepted submission: Accepted == FlushedPatterns + FlushFailures.
func TestStreamFlushUnderLoad(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2, 3, 4}, 4)
	in, err := c.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := Pattern{1, 2, 3, 4}

	const producers = 2
	var acked [producers]atomic.Uint64
	running := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for g := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Producer g's k-th accepted person is g + producers·k + 1.
			for p := PersonID(g + 1); ; p += producers {
				err := in.Submit(ctx, p, want)
				if errors.Is(err, ErrStreamClosed) {
					return
				}
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if acked[g].Add(1) == flushBatch {
					once.Do(func() { close(running) })
				}
			}
		}()
	}
	<-running

	var before [producers]uint64
	for g := range acked {
		before[g] = acked[g].Load()
	}
	fctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	err = in.Flush(fctx)
	cancel()
	if err != nil {
		t.Fatalf("Flush under load: %v", err)
	}
	got := searchPersons(t, c, want)
	for g, n := range before {
		for k := range n {
			if p := PersonID(g+1) + PersonID(k*producers); got[p].Person != p {
				t.Fatalf("person %d, accepted before Flush, is not found after it (%d of %d found)", p, len(got), before[0]+before[1])
			}
		}
	}

	if err := in.Close(); err != nil {
		t.Fatalf("Close under load: %v", err)
	}
	wg.Wait()
	rep := in.Report()
	if rep.Accepted != rep.FlushedPatterns+rep.FlushFailures {
		t.Fatalf("Close returned with Accepted %d, FlushedPatterns + FlushFailures = %d", rep.Accepted, rep.FlushedPatterns+rep.FlushFailures)
	}
	if rep.Accepted+rep.Rejected != rep.Submitted {
		t.Fatalf("accepted %d + rejected %d != submitted %d", rep.Accepted, rep.Rejected, rep.Submitted)
	}
}

// TestStreamCountersSnapshot: Report copies the live counters, field by
// field, and the copy does not move with them.
func TestStreamCountersSnapshot(t *testing.T) {
	var c streamCounters
	c.submitted.Store(10)
	c.accepted.Store(7)
	c.rejected.Store(3)
	c.blocked.Store(2)
	c.flushes.Store(5)
	c.flushedPatterns.Store(6)
	c.flushFailures.Store(1)
	got := c.snapshot()
	want := StreamStats{
		Submitted: 10, Accepted: 7, Rejected: 3, Blocked: 2,
		Flushes: 5, FlushedPatterns: 6, FlushFailures: 1,
	}
	if got != want {
		t.Fatalf("snapshot() = %+v, want %+v", got, want)
	}
	c.accepted.Add(100)
	if got.Accepted != 7 {
		t.Fatal("snapshot aliased the live counters")
	}
}

// openStreamWAL opens one station's WAL store under dir.
func openStreamWAL(t *testing.T, dir string, id uint32) *wal.Store {
	t.Helper()
	s, err := wal.Open(filepath.Join(dir, fmt.Sprintf("station-%d", id)), wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return s
}
