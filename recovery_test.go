package dimatch

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/store/wal"
	"dimatch/internal/transport"
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

// walMembers lists one in-process member per id, each durable through its
// own WAL under dir.
func walMembers(t *testing.T, dir string, ids []uint32) []Member {
	ms := make([]Member, len(ids))
	for i, id := range ids {
		ms[i] = Member{ID: id, Store: openWAL(t, dir, id)}
	}
	return ms
}

// TestStoredStationDigestRecovery pins digest byte-identity across a
// restart: neither the store nor the station keeps a digest, and the one a
// restarted station builds for its first summary pull — after a fold, and
// again after post-fold appends — is byte-identical to the pre-crash one,
// because index.Build is deterministic in the resident set.
func TestStoredStationDigestRecovery(t *testing.T) {
	dir := t.TempDir()
	restart := func(opts wal.Options) (*station, *wal.Store) {
		t.Helper()
		st, err := wal.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, stationEnd := transport.Pipe(nil, nil)
		s, err := newStation(1, nil, stationEnd, st)
		if err != nil {
			t.Fatal(err)
		}
		return s, st
	}
	ingest := func(s *station, p PersonID, local Pattern) {
		t.Helper()
		if _, err := s.handleIngest(ingestFrame(t, []PersonID{p}, []Pattern{local})); err != nil {
			t.Fatal(err)
		}
	}
	pull := func(s *station) []byte {
		t.Helper()
		reply, err := s.handleSummary()
		if err != nil {
			t.Fatal(err)
		}
		return reply.Payload
	}

	// Every record folds: the ingest's persist snapshots the residents.
	s, st := restart(wal.Options{SnapshotEvery: 1, SnapshotBytes: -1})
	ingest(s, 7, Pattern{3, -1, 4})
	ingest(s, 9, Pattern{2, 2, 2})
	if st.Generation() == 0 {
		t.Fatal("persist never folded despite SnapshotEvery=1")
	}
	want := pull(s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the snapshot alone, then append past it without folding.
	s2, st2 := restart(wal.Options{})
	if got := pull(s2); !bytes.Equal(got, want) {
		t.Fatalf("digest rebuilt from the snapshot drifted:\n got %x\nwant %x", got, want)
	}
	ingest(s2, 12, Pattern{8, 8, 8})
	wantGrown := pull(s2)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, st3 := restart(wal.Options{})
	defer st3.Close()
	if got := pull(s3); !bytes.Equal(got, wantGrown) {
		t.Fatalf("digest rebuilt from snapshot plus log drifted:\n got %x\nwant %x", got, wantGrown)
	}
}

// BenchmarkStationFold times a durable station's fold: a persist of a
// one-resident upsert over 25 000 length-24 residents, with a WAL that folds
// on every record, so each op is one log append plus one full snapshot.
// snap_B/op is the snapshot each fold writes.
func BenchmarkStationFold(b *testing.B) {
	const residents, length = 25000, 24
	st, err := wal.Open(b.TempDir(), wal.Options{SnapshotEvery: 1, SnapshotBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = st.Close() })
	rng := rand.New(rand.NewSource(1))
	locals := make(map[PersonID]Pattern, residents)
	for p := PersonID(1); p <= residents; p++ {
		row := make(Pattern, length)
		for g := range row {
			row[g] = rng.Int63n(8)
		}
		row[0]++
		locals[p] = row
	}
	_, stationEnd := transport.Pipe(nil, nil)
	s, err := newStation(1, locals, stationEnd, st)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]int32, length)
	var snapBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := PersonID(i%residents + 1)
		row = pattern.AppendCells(row[:0], locals[p])
		row[i%length]++
		s.residents.Upsert(p, row)
		if err := s.persist(store.CellBatch{Op: store.OpIngest, Persons: []PersonID{p}, Locals: [][]int32{row}}); err != nil {
			b.Fatal(err)
		}
		snapBytes += st.SnapshotBytes()
	}
	b.ReportMetric(float64(snapBytes)/float64(b.N), "snap_B/op")
}

// TestRecoveryDeltaOnlyRebalance pins the rejoin cost: a placed cluster
// whose station restarts from its WAL re-replicates only the copies placed
// while it was down — not its whole resident set.
func TestRecoveryDeltaOnlyRebalance(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ids := []uint32{0, 1, 2}
	c, err := NewCluster(Options{}, 2, walMembers(t, dir, ids)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })

	placed := make(map[PersonID]Pattern, 40)
	for i := 1; i <= 40; i++ {
		placed[PersonID(i)] = Pattern{int64(i), int64(i + 1)}
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
	late := make(map[PersonID]Pattern, 5)
	for i := 41; i <= 45; i++ {
		late[PersonID(i)] = Pattern{int64(i), int64(i + 1)}
	}
	if err := c.Place(ctx, late, WithReplication(2)); err != nil {
		t.Fatal(err)
	}

	// Rejoin by hand — AddStation's steps for a durable member, with the heal
	// replaced by an explicit Rebalance so the report is observable.
	m := Member{ID: 2, Store: openWAL(t, dir, 2)}
	mux, _, err := c.wire(&m)
	if err != nil {
		t.Fatal(err)
	}
	replies, err := c.handshake(ctx, []uint32{2}, []*transport.Mux{mux})
	if err != nil {
		t.Fatal(err)
	}
	if replies[0].Length != 2 {
		t.Fatalf("recovered pattern length %d, want 2 — WAL came back empty?", replies[0].Length)
	}
	recovered := replies[0].Residents
	if recovered == 0 {
		t.Fatal("station 2 recovered no residents")
	}
	c.mu.Lock()
	c.addMemberLocked(2, mux)
	c.mu.Unlock()
	c.summaries.invalidate(2)

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
	queries := make([]Query, 0, 45)
	for p, l := range placed {
		_ = p
		queries = append(queries, Query{ID: QueryID(len(queries) + 1), Locals: []Pattern{l}})
	}
	for _, l := range late {
		queries = append(queries, Query{ID: QueryID(len(queries) + 1), Locals: []Pattern{l}})
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
