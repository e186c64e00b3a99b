package stream

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/store/wal"
)

// streamOptions sizes the filter explicitly so the small populations of
// these tests cannot hit Bloom false positives.
func streamOptions() cluster.Options {
	return cluster.Options{Params: core.Params{Bits: 1 << 16, Hashes: 4, Samples: 4, Epsilon: 0, Seed: 1}}
}

// newStreamCluster stands up an empty in-process cluster.
func newStreamCluster(t *testing.T, stations []uint32, length int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewEmpty(streamOptions(), stations, length)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { _ = c.Shutdown() })
	return c
}

// searchPersons runs one single-local query and returns the retrieved set.
func searchPersons(t *testing.T, c *cluster.Cluster, local pattern.Pattern) map[core.PersonID]core.Result {
	t.Helper()
	out, err := c.Search(context.Background(), []core.Query{
		{ID: 1, Locals: []pattern.Pattern{local}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[core.PersonID]core.Result, len(out.PerQuery[1]))
	for _, r := range out.PerQuery[1] {
		got[r.Person] = r
	}
	return got
}

func TestStreamSubmitFlushSearch(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2, 3, 4}, 4)
	in, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()

	const n = 200
	for p := core.PersonID(100); p < 100+n; p++ {
		if err := in.Submit(ctx, p, pattern.Pattern{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	got := searchPersons(t, c, pattern.Pattern{1, 2, 3, 4})
	if len(got) != n {
		t.Fatalf("retrieved %d persons, want %d", len(got), n)
	}
	for p, r := range got {
		// Streamed patterns are replica-managed: both copies report, the
		// aggregation dedupes instead of summing (a sum of 2 would be
		// deleted as over-matched).
		if r.Score() != 1.0 {
			t.Fatalf("person %d scored %.3f, want 1", p, r.Score())
		}
		if r.Stations != cluster.DefaultReplication {
			t.Fatalf("person %d reported by %d stations, want %d replicas", p, r.Stations, cluster.DefaultReplication)
		}
	}
	if got := c.Placed(); got != n {
		t.Fatalf("Placed() = %d, want %d (streamed persons are placement-managed)", got, n)
	}

	rep := in.Report()
	if rep.Submitted != n || rep.Accepted != n || rep.Shed != 0 || rep.Rejected != 0 {
		t.Fatalf("accounting = %+v, want %d submitted and accepted", rep, n)
	}
	if rep.FlushedPatterns != uint64(n*cluster.DefaultReplication) {
		t.Fatalf("FlushedPatterns = %d, want %d copies", rep.FlushedPatterns, n*cluster.DefaultReplication)
	}
	if rep.FlushFailures != 0 {
		t.Fatalf("FlushFailures = %d, want 0", rep.FlushFailures)
	}
	var perStation uint64
	for _, s := range rep.Stations {
		perStation += s.FlushedPatterns
		if s.QueueDepth != 0 {
			t.Fatalf("station %d queue depth %d after Flush, want 0", s.Station, s.QueueDepth)
		}
	}
	if perStation != rep.FlushedPatterns {
		t.Fatalf("per-station flushed %d != total %d", perStation, rep.FlushedPatterns)
	}
}

func TestStreamValidationAndClose(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2}, 4)
	in, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := in.Submit(ctx, 1, pattern.Pattern{1, 2}); !errors.Is(err, cluster.ErrLengthMismatch) {
		t.Fatalf("short pattern error = %v, want ErrLengthMismatch", err)
	}
	// All-zero patterns are skipped silently (stations drop them anyway).
	if err := in.Submit(ctx, 2, pattern.Pattern{0, 0, 0, 0}); err != nil {
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
	if err := in.Submit(ctx, 3, pattern.Pattern{1, 2, 3, 4}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := in.Flush(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
}

// TestStreamShedAccounting saturates a deliberately tiny pipeline in shed
// mode and verifies overload drops instead of blocking, with every drop
// accounted: Accepted + Shed + Rejected == Submitted, exactly.
func TestStreamShedAccounting(t *testing.T) {
	c := newStreamCluster(t, []uint32{1}, 4)
	in, err := New(c, Options{
		QueueCap:    1,
		FlushBatch:  1,
		Encoders:    1,
		Admission:   Shed,
		Replication: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := core.PersonID(1 + g*500 + i)
				_ = in.Submit(ctx, p, pattern.Pattern{1, 2, 3, 4})
			}
		}()
	}
	wg.Wait()
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	rep := in.Report()
	if rep.Shed == 0 {
		t.Fatalf("Shed = 0 over %d submissions through a 1-deep queue; backpressure never engaged", rep.Submitted)
	}
	if rep.Accepted+rep.Shed+rep.Rejected != rep.Submitted {
		t.Fatalf("accounting broken: accepted %d + shed %d + rejected %d != submitted %d",
			rep.Accepted, rep.Shed, rep.Rejected, rep.Submitted)
	}
	if rep.FlushFailures != 0 {
		t.Fatalf("FlushFailures = %d, want 0 (shed drops at admission, never after)", rep.FlushFailures)
	}
	// Everything accepted must be searchable.
	got := searchPersons(t, c, pattern.Pattern{1, 2, 3, 4})
	if uint64(len(got)) != rep.Accepted {
		t.Fatalf("retrieved %d persons, want the %d accepted", len(got), rep.Accepted)
	}
}

// TestStreamBlockAccounting: the same saturation in block mode sheds
// nothing — every submission waits its turn and lands.
func TestStreamBlockAccounting(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2}, 4)
	in, err := New(c, Options{
		QueueCap:    1,
		FlushBatch:  1,
		Encoders:    1,
		Admission:   Block,
		Replication: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()

	const n = 400
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				p := core.PersonID(1 + g*(n/4) + i)
				if err := in.Submit(ctx, p, pattern.Pattern{2, 2, 2, 2}); err != nil {
					t.Errorf("block-mode Submit failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	rep := in.Report()
	if rep.Shed != 0 {
		t.Fatalf("Shed = %d in block mode, want 0", rep.Shed)
	}
	if rep.Accepted != n || rep.Submitted != n {
		t.Fatalf("accounting = %+v, want %d accepted", rep, n)
	}
	if rep.Blocked == 0 {
		t.Fatalf("Blocked = 0 over %d submissions through a 1-deep queue; expected waits", n)
	}
	got := searchPersons(t, c, pattern.Pattern{2, 2, 2, 2})
	if len(got) != n {
		t.Fatalf("retrieved %d persons, want %d", len(got), n)
	}
}

// TestStreamTTLChurn: TTL-expired patterns stop matching, the stations'
// resident stores shrink, placement intents are released, and eviction is
// accounted — while a refreshed person out-lives their original deadline.
func TestStreamTTLChurn(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2, 3}, 4)
	const ttl = 400 * time.Millisecond
	in, err := New(c, Options{TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()

	// A static population placed outside the TTL pipeline: expiry must evict
	// exactly the streamed cohort and leave these alone.
	const static = 5
	placed := make(map[core.PersonID]pattern.Pattern, static)
	for p := core.PersonID(900); p < 900+static; p++ {
		placed[p] = pattern.Pattern{7, 7, 7, 7}
	}
	if err := c.Place(ctx, placed); err != nil {
		t.Fatal(err)
	}

	const n = 30
	for p := core.PersonID(100); p < 100+n; p++ {
		if err := in.Submit(ctx, p, pattern.Pattern{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := searchPersons(t, c, pattern.Pattern{1, 2, 3, 4}); len(got) != n {
		t.Fatalf("retrieved %d persons before expiry, want %d", len(got), n)
	}

	// Keep one person alive by resubmitting them halfway through the TTL.
	time.Sleep(ttl / 2)
	if err := in.Submit(ctx, 100, pattern.Pattern{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Everyone but the refreshed person expires within one TTL + sweep
	// slack; poll rather than assume scheduling precision.
	deadline := time.Now().Add(10 * ttl)
	for {
		if in.Report().TTLEvictions >= n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("TTLEvictions = %d after %v, want >= %d", in.Report().TTLEvictions, 10*ttl, n-1)
		}
		time.Sleep(ttl / 20)
	}
	got := searchPersons(t, c, pattern.Pattern{1, 2, 3, 4})
	for p := core.PersonID(101); p < 100+n; p++ {
		if _, ok := got[p]; ok {
			t.Fatalf("person %d still matches after TTL expiry", p)
		}
	}
	if _, ok := got[100]; !ok {
		t.Fatalf("refreshed person 100 expired with the cohort; resubmission must extend the deadline")
	}

	// Expiry must release storage and placement, not just search results.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.DefaultReplication * (1 + static) // person 100's copies and the static population's
	if st.TotalResidents() != want {
		t.Fatalf("TotalResidents = %d after churn, want %d", st.TotalResidents(), want)
	}
	if got := c.Placed(); got != 1+static {
		t.Fatalf("Placed() = %d after churn, want %d", got, 1+static)
	}
	if got := searchPersons(t, c, pattern.Pattern{7, 7, 7, 7}); len(got) != static {
		t.Fatalf("retrieved %d of the %d static persons after TTL churn", len(got), static)
	}
	rep := in.Report()
	var perStation uint64
	for _, s := range rep.Stations {
		perStation += s.Evictions
	}
	if perStation == 0 {
		t.Fatalf("per-station eviction accounting empty: %+v", rep.Stations)
	}
}

// TestStreamRemoveStationMidStream: removing a station under sustained
// ingest must re-key its shard onto the survivors without losing a single
// acked pattern — the acceptance bar for membership churn.
func TestStreamRemoveStationMidStream(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2, 3, 4}, 4)
	in, err := New(c, Options{FlushBatch: 8, FlushInterval: time.Millisecond})
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
		for p := core.PersonID(1); p <= n; p++ {
			if err := in.Submit(ctx, p, pattern.Pattern{1, 2, 3, 4}); err != nil {
				select {
				case errs <- fmt.Errorf("submit %d: %w", p, err):
				default:
				}
				return
			}
		}
	}()

	// Remove a station mid-stream, then a second one for good measure: the
	// retired shards must drain onto the survivors.
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
	// The pipeline's settler re-replicates patterns whose flushes were in
	// flight during the removal's synchronous heal. Wait for it to restore
	// full replication before taking the second station away — without the
	// settle, a pattern whose surviving copy sat on station 4 would go down
	// with it.
	waitDeadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.TotalResidents() == n*cluster.DefaultReplication {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("TotalResidents = %d, want %d; settle never restored replication", st.TotalResidents(), n*cluster.DefaultReplication)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.RemoveStation(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	rep := in.Report()
	if rep.Accepted != n {
		t.Fatalf("accepted %d, want %d", rep.Accepted, n)
	}
	if rep.FlushFailures != 0 {
		t.Fatalf("FlushFailures = %d; every acked pattern must survive the re-key", rep.FlushFailures)
	}
	got := searchPersons(t, c, pattern.Pattern{1, 2, 3, 4})
	if len(got) != n {
		t.Fatalf("retrieved %d persons after removals, want all %d acked", len(got), n)
	}
	for p, r := range got {
		if r.Score() != 1.0 {
			t.Fatalf("person %d scored %.3f after re-key, want 1", p, r.Score())
		}
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
	in, err := New(c, Options{FlushBatch: 16, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()

	const n = 400
	// Flush checkpoints: after each hundred, barrier and record the prefix.
	var mu sync.Mutex
	flushed := core.PersonID(0)
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
				out, err := c.Search(context.Background(), []core.Query{
					{ID: 1, Locals: []pattern.Pattern{{1, 2, 3, 4}}},
				})
				if err != nil {
					t.Errorf("concurrent search failed: %v", err)
					return
				}
				got := make(map[core.PersonID]bool, len(out.PerQuery[1]))
				for _, r := range out.PerQuery[1] {
					got[r.Person] = true
				}
				for p := core.PersonID(1); p <= want; p++ {
					if !got[p] {
						t.Errorf("person %d flushed before the search but not retrieved", p)
						return
					}
				}
			}
		}()
	}

	// The warm cohort is flushed before the kill. The kill itself starts 50
	// submissions past that barrier, so the victim's shard holds copies not
	// yet flushed, and runs beside the Submit loop streaming the rest.
	const warm, killAt = 100, 150
	killErr := make(chan error, 1)
	for p := core.PersonID(1); p <= n; p++ {
		if err := in.Submit(ctx, p, pattern.Pattern{1, 2, 3, 4}); err != nil {
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
	// The kill may have outlasted the loop's last barrier: flush what the
	// retired shard re-keyed after it.
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
	got := searchPersons(t, c, pattern.Pattern{1, 2, 3, 4})
	for p := core.PersonID(1); p <= n; p++ {
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

// TestStreamStatsSurface: Cluster.Stats carries the merged pipeline health
// while pipelines are registered and drops it after the last Close.
func TestStreamStatsSurface(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2}, 4)
	ctx := context.Background()

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stream != nil {
		t.Fatalf("Stats.Stream = %+v before any pipeline, want nil", st.Stream)
	}

	a, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for p := core.PersonID(1); p <= 10; p++ {
		if err := a.Submit(ctx, p, pattern.Pattern{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		if err := b.Submit(ctx, p+100, pattern.Pattern{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stream == nil {
		t.Fatal("Stats.Stream nil with two pipelines registered")
	}
	if st.Stream.Accepted != 20 {
		t.Fatalf("merged Accepted = %d, want 20 across both pipelines", st.Stream.Accepted)
	}
	for i := 1; i < len(st.Stream.Stations); i++ {
		if st.Stream.Stations[i-1].Station >= st.Stream.Stations[i].Station {
			t.Fatalf("per-station entries not ascending: %+v", st.Stream.Stations)
		}
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stream != nil {
		t.Fatalf("Stats.Stream = %+v after Close, want nil", st.Stream)
	}
}

// TestStreamRerouteOnKill pins the retired-shard re-key path directly: a
// long flush interval parks copies in the appliers' assembling batches,
// the kill retires one shard, and the kick makes it re-route its batch to
// the survivor — nothing is lost, everything lands.
func TestStreamRerouteOnKill(t *testing.T) {
	c := newStreamCluster(t, []uint32{1, 2}, 3)
	in, err := New(c, Options{
		FlushBatch:    1 << 20,     // never fill a batch...
		FlushInterval: time.Hour,   // ...and never time one out: only a
		FlushTimeout:  time.Second, // kick (retirement, Flush) dispatches
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()

	const n = 24
	for p := core.PersonID(1); p <= n; p++ {
		if err := in.Submit(ctx, p, pattern.Pattern{4, 5, 6}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the encoders to fan every copy out to the two shards
	// (pending stabilizes at n*2 once the intake is drained).
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := in.Report()
		depth := 0
		for _, s := range rep.Stations {
			depth += s.QueueDepth
		}
		if depth == n*cluster.DefaultReplication {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("copies never reached the shards: %+v", rep)
		}
		time.Sleep(time.Millisecond)
	}

	if err := c.KillStation(2); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	rep := in.Report()
	if rep.Rerouted == 0 {
		t.Fatalf("kill of a loaded shard must re-route its copies: %+v", rep)
	}
	if rep.FlushFailures != 0 {
		t.Fatalf("re-keying lost %d copies", rep.FlushFailures)
	}
	got := searchPersons(t, c, pattern.Pattern{4, 5, 6})
	if len(got) != n {
		t.Fatalf("retrieved %d persons after the kill, want %d", len(got), n)
	}
}

func TestAdmissionString(t *testing.T) {
	if Block.String() != "block" || Shed.String() != "shed" {
		t.Fatalf("Admission strings: %q, %q", Block, Shed)
	}
	if got := Admission(42).String(); got != "Admission(42)" {
		t.Fatalf("unknown admission String() = %q", got)
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
	stores := make(map[uint32]store.Store, len(ids))
	for _, id := range ids {
		stores[id] = openWAL(t, dir, id)
	}
	c, err := cluster.NewStored(streamOptions(), stores, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { _ = c.Shutdown() })

	in, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	const n = 60
	for p := core.PersonID(1); p <= n; p++ {
		if err := in.Submit(ctx, p, pattern.Pattern{9, 9, 9}); err != nil {
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
		if err := c.AddStoredStation(ctx, id, nil, openWAL(t, dir, id)); err != nil {
			t.Fatal(err)
		}
	}

	got := searchPersons(t, c, pattern.Pattern{9, 9, 9})
	if len(got) != n {
		t.Fatalf("retrieved %d persons after restarts, want %d", len(got), n)
	}
	rep := in.Report()
	if rep.FlushFailures != 0 {
		t.Fatalf("FlushFailures = %d, want 0 — recovery must not need a resubmit", rep.FlushFailures)
	}
}

// openWAL opens one station's WAL store under dir.
func openWAL(t *testing.T, dir string, id uint32) *wal.Store {
	t.Helper()
	s, err := wal.Open(filepath.Join(dir, fmt.Sprintf("station-%d", id)), wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return s
}
