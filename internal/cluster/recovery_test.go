package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/store/wal"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// openWAL opens one station's WAL backend under dir.
func openWAL(t *testing.T, dir string, id uint32) *wal.Store {
	t.Helper()
	s, err := wal.Open(filepath.Join(dir, fmt.Sprintf("station-%d", id)), wal.Options{
		// Aggressive folding so restarts exercise snapshot + log replay, not
		// just log replay.
		SnapshotEvery: 8,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return s
}

// restartStation is the crash-and-rejoin path under test: sever the link
// (the in-process stand-in for kill -9), drop the member, reopen the same
// WAL directory, and rejoin through recovery. Churn is sequential and every
// batch is acked after its append, so the store on disk holds exactly the
// batches the cluster saw acknowledged.
func restartStation(t *testing.T, c *Cluster, dir string, id uint32) {
	t.Helper()
	ctx := context.Background()
	if err := c.KillStation(id); err != nil {
		t.Fatalf("KillStation(%d): %v", id, err)
	}
	if err := c.RemoveStation(ctx, id); err != nil {
		t.Fatalf("RemoveStation(%d): %v", id, err)
	}
	st := openWAL(t, dir, id)
	if err := c.AddStoredStation(ctx, id, nil, st); err != nil {
		t.Fatalf("AddStoredStation(%d): %v", id, err)
	}
}

// TestRecoveryEquivalence is the property pin: a cluster whose stations are
// hard-stopped and recovered from their WALs at random churn points must be
// observationally identical — residents, digests, search results — to a twin
// that never restarted. Run under -race in CI.
func TestRecoveryEquivalence(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ids := []uint32{0, 1, 2, 3}

	stores := make(map[uint32]store.Store, len(ids))
	for _, id := range ids {
		stores[id] = openWAL(t, dir, id)
	}
	durable, err := NewStored(Options{}, stores, 3)
	if err != nil {
		t.Fatal(err)
	}
	durable.Start()
	t.Cleanup(func() { _ = durable.Shutdown() })

	twin, err := NewEmpty(Options{}, ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	twin.Start()
	t.Cleanup(func() { _ = twin.Shutdown() })

	rng := rand.New(rand.NewSource(42))
	restartAt := map[int]bool{23: true, 47: true, 71: true}
	next := core.PersonID(1)
	type placedAt struct {
		person  core.PersonID
		station uint32
	}
	var live []placedAt

	both := func(op func(c *Cluster) error) {
		t.Helper()
		if err := op(durable); err != nil {
			t.Fatalf("durable: %v", err)
		}
		if err := op(twin); err != nil {
			t.Fatalf("twin: %v", err)
		}
	}

	for step := 0; step < 90; step++ {
		if restartAt[step] {
			restartStation(t, durable, dir, ids[rng.Intn(len(ids))])
		}
		switch {
		case len(live) == 0 || rng.Intn(3) > 0:
			p := next
			next++
			s := ids[rng.Intn(len(ids))]
			pat := pattern.Pattern{rng.Int63n(900) + 1, rng.Int63n(900), rng.Int63n(900)}
			both(func(c *Cluster) error {
				return c.Ingest(ctx, s, map[core.PersonID]pattern.Pattern{p: pat})
			})
			live = append(live, placedAt{person: p, station: s})
		default:
			i := rng.Intn(len(live))
			both(func(c *Cluster) error {
				return c.Evict(ctx, live[i].station, []core.PersonID{live[i].person})
			})
			live = append(live[:i], live[i+1:]...)
		}

		if step%15 != 14 {
			continue
		}
		queries := []core.Query{
			{ID: 1, Locals: []pattern.Pattern{{rng.Int63n(900) + 1, rng.Int63n(900), rng.Int63n(900)}}},
			{ID: 2, Locals: []pattern.Pattern{{5, 6, 7}}},
		}
		wantOut, err := twin.Search(ctx, queries, WithRouting(RoutingFull))
		if err != nil {
			t.Fatal(err)
		}
		full, err := durable.Search(ctx, queries, WithRouting(RoutingFull))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("step %d full", step), queries, wantOut, full)
		routed, err := durable.Search(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("step %d routed", step), queries, wantOut, routed)
	}

	// Per-station residents must agree exactly: recovery restored each
	// station's set, not just the union.
	dStats, err := durable.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tStats, err := twin.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dStats.StationsFailed != 0 || tStats.StationsFailed != 0 {
		t.Fatalf("stats failures: durable %d, twin %d", dStats.StationsFailed, tStats.StationsFailed)
	}
	if len(dStats.Stations) != len(tStats.Stations) {
		t.Fatalf("station counts differ: %d vs %d", len(dStats.Stations), len(tStats.Stations))
	}
	for i := range dStats.Stations {
		d, w := dStats.Stations[i], tStats.Stations[i]
		if d.Station != w.Station || d.Residents != w.Residents || d.StorageBytes != w.StorageBytes {
			t.Fatalf("station %d diverged after recovery: %+v vs twin %+v", d.Station, d, w)
		}
	}
}

// TestStoredStationDigestRecovery pins digest byte-identity across a
// restart: a digest folded into a snapshot is recovered verbatim, and a
// digest rebuilt after log replay is byte-identical to the one a
// never-restarted station would serve, because index.Build is deterministic
// in the resident set.
func TestStoredStationDigestRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.Options{SnapshotEvery: 1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	locals := map[core.PersonID]pattern.Pattern{
		7: {3, -1, 4},
		9: {2, 2, 2},
	}
	_, stationEnd := transport.Pipe(nil, nil)
	s, err := NewStoredStation(1, locals, stationEnd, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ensureSummary(); err != nil {
		t.Fatal(err)
	}
	want := wire.EncodeSummaryPayload(s.summary, 1)

	// Fold the log into a snapshot that carries the memoized digest.
	folded, err := st.Compact(func() (store.Image, error) {
		return store.Image{Persons: s.residents.Persons(), Locals: s.residents.Locals(), Digest: s.summary}, nil
	})
	if err != nil || !folded {
		t.Fatalf("Compact: folded=%v err=%v", folded, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the digest comes back from the snapshot without a rebuild.
	st2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, stationEnd2 := transport.Pipe(nil, nil)
	s2, err := NewStoredStation(1, nil, stationEnd2, st2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.summary == nil {
		t.Fatal("snapshot digest not recovered into the station")
	}
	if got := wire.EncodeSummaryPayload(s2.summary, 1); !bytes.Equal(got, want) {
		t.Fatalf("recovered digest drifted:\n got %x\nwant %x", got, want)
	}

	// Append past the snapshot: the digest no longer covers the store, so a
	// restart rebuilds it lazily — and lands on the same bytes.
	if err := s2.persist(store.Batch{Op: store.OpIngest,
		Persons: []core.PersonID{12}, Locals: []pattern.Pattern{{8, 8, 8}}}); err != nil {
		t.Fatal(err)
	}
	s2.residents.Upsert(12, pattern.Pattern{8, 8, 8})
	s2.summary = nil
	if err := s2.ensureSummary(); err != nil {
		t.Fatal(err)
	}
	wantGrown := wire.EncodeSummaryPayload(s2.summary, 1)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	_, stationEnd3 := transport.Pipe(nil, nil)
	s3, err := NewStoredStation(1, nil, stationEnd3, st3)
	if err != nil {
		t.Fatal(err)
	}
	if s3.summary != nil {
		t.Fatal("stale digest served after post-snapshot appends")
	}
	if err := s3.ensureSummary(); err != nil {
		t.Fatal(err)
	}
	if got := wire.EncodeSummaryPayload(s3.summary, 1); !bytes.Equal(got, wantGrown) {
		t.Fatalf("rebuilt digest drifted:\n got %x\nwant %x", got, wantGrown)
	}
}

// TestRecoveryDeltaOnlyRebalance pins the rejoin cost: a placed cluster
// whose station restarts from its WAL re-replicates only the copies placed
// while it was down — not its whole resident set.
func TestRecoveryDeltaOnlyRebalance(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ids := []uint32{0, 1, 2}
	stores := make(map[uint32]store.Store, len(ids))
	for _, id := range ids {
		stores[id] = openWAL(t, dir, id)
	}
	c, err := NewStored(Options{}, stores, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { _ = c.Shutdown() })

	placed := make(map[core.PersonID]pattern.Pattern, 40)
	for i := 1; i <= 40; i++ {
		placed[core.PersonID(i)] = pattern.Pattern{int64(i), int64(i + 1)}
	}
	if err := c.Place(ctx, placed, WithReplication(2)); err != nil {
		t.Fatal(err)
	}

	// Hard-stop station 2 and drop it; the departure heal restores R=2 on
	// the survivors.
	if err := c.KillStation(2); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveStation(ctx, 2); err != nil {
		t.Fatal(err)
	}

	// Five more persons arrive while the station is down — the only copies
	// its recovered state can be missing.
	late := make(map[core.PersonID]pattern.Pattern, 5)
	for i := 41; i <= 45; i++ {
		late[core.PersonID(i)] = pattern.Pattern{int64(i), int64(i + 1)}
	}
	if err := c.Place(ctx, late, WithReplication(2)); err != nil {
		t.Fatal(err)
	}

	// Rejoin by hand — AddStoredStation's steps, with the heal replaced by
	// an explicit Rebalance so the report is observable.
	st := openWAL(t, dir, 2)
	center, stationEnd := transport.Pipe(c.downMeter, c.upMeter)
	station, err := NewStoredStation(2, nil, stationEnd, st)
	if err != nil {
		t.Fatal(err)
	}
	if station.patternLength() != 2 {
		t.Fatalf("recovered pattern length %d, want 2 — WAL came back empty?", station.patternLength())
	}
	recovered := station.Residents()
	if recovered == 0 {
		t.Fatal("station 2 recovered no residents")
	}
	c.mu.Lock()
	c.serveLocked(station)
	c.addMemberLocked(2, transport.NewMux(center))
	c.mu.Unlock()
	c.summaries.invalidate(2)
	c.notifyMembership()

	report, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Lost != 0 {
		t.Fatalf("rebalance lost %d persons", report.Lost)
	}
	// Delta-only: at most the five late arrivals need copying onto the
	// rejoined station. Full re-replication would copy its entire share
	// (~2/3 of 45 persons at R=2 over 3 stations).
	if report.Copied > len(late) {
		t.Fatalf("rejoin copied %d patterns — more than the %d placed while down (recovered %d)",
			report.Copied, len(late), recovered)
	}

	// Recall is whole: every placed person is still found.
	queries := make([]core.Query, 0, 45)
	for p, l := range placed {
		_ = p
		queries = append(queries, core.Query{ID: core.QueryID(len(queries) + 1), Locals: []pattern.Pattern{l}})
	}
	for _, l := range late {
		queries = append(queries, core.Query{ID: core.QueryID(len(queries) + 1), Locals: []pattern.Pattern{l}})
	}
	out, err := c.Search(ctx, queries, WithRouting(RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if len(out.PerQuery[q.ID]) == 0 {
			t.Fatalf("query %d found nothing after rejoin", q.ID)
		}
	}
}
