package dimatch

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dimatch/internal/store/wal"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// ingestFrame is the KindIngest frame of the rows persons[i], locals[i].
func ingestFrame(t testing.TB, persons []PersonID, locals []Pattern) wire.Message {
	t.Helper()
	payload, err := wire.EncodeRows(nil, persons, locals, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire.Message{Kind: wire.KindIngest, Payload: payload}
}

// ingestOverLink sends one KindIngest down a raw link — no coordinator, so
// no length check stands between the frame and the station — and returns the
// Residents of the stats reply that answers it.
func ingestOverLink(t *testing.T, center Link, persons []PersonID, locals []Pattern) uint64 {
	t.Helper()
	if err := center.Send(ingestFrame(t, persons, locals).WithRequest(1)); err != nil {
		t.Fatal(err)
	}
	reply, err := center.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := wire.DecodeStatsReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	return sr.Residents
}

// TestDurableStationSurvivesForeignLengthIngest: a pattern whose length
// differs from the residents' is skipped like an all-zero one — not applied,
// not counted in the reply, not persisted. The parent acked it and logged it;
// the station then died building its next digest and could not restart
// ("recovered pattern length 4 alongside 3").
func TestDurableStationSurvivesForeignLengthIngest(t *testing.T) {
	dir := t.TempDir()
	serve := func() (Link, chan error) {
		st, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		center, stationEnd := transport.Pipe(nil, nil)
		s, err := newStation(1, nil, stationEnd, st)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Serve() }()
		return center, done
	}
	stop := func(center Link, done chan error) {
		t.Helper()
		if err := center.Send(wire.ShutdownMessage()); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("serve loop: %v", err)
		}
	}
	residents := func(center Link) wire.StatsReply {
		t.Helper()
		if err := center.Send(wire.StatsMessage().WithRequest(2)); err != nil {
			t.Fatal(err)
		}
		reply, err := center.Recv()
		if err != nil {
			t.Fatal(err)
		}
		sr, err := wire.DecodeStatsReply(reply)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}

	center, done := serve()
	if got := ingestOverLink(t, center, []PersonID{7}, []Pattern{{3, 1, 4}}); got != 1 {
		t.Fatalf("3-cell ingest: Residents = %d, want 1", got)
	}
	if got := ingestOverLink(t, center, []PersonID{9}, []Pattern{{1, 5, 9, 2}}); got != 1 {
		t.Fatalf("4-cell ingest beside 3-cell residents: Residents = %d, want 1", got)
	}
	// The digest pull walks every resident: mixed lengths killed the loop here.
	if err := center.Send(wire.SummaryMessage().WithRequest(3)); err != nil {
		t.Fatal(err)
	}
	if reply, err := center.Recv(); err != nil || reply.Kind != wire.KindSummaryReply {
		t.Fatalf("summary pull after the foreign-length ingest: %v, %v", reply.Kind, err)
	}
	stop(center, done)

	center, done = serve() // restart over the same directory
	if sr := residents(center); sr.Residents != 1 || sr.Length != 3 || sr.StorageBytes != 24 {
		t.Fatalf("restarted station reports %+v, want 1 resident of length 3 in 24 bytes", sr)
	}
	stop(center, done)
}

// TestStationNeverAliasesCallerPatterns: a station overwrites rows in place,
// so nothing it stores may be the caller's memory (and the other way round):
// scribbling over every pattern handed to NewCluster, AddStation or Ingest
// changes no answer.
func TestStationNeverAliasesCallerPatterns(t *testing.T) {
	ctx := context.Background()
	search := func(c *Cluster) []PersonID {
		t.Helper()
		out, err := c.Search(ctx, []Query{paperQuery()}, WithStrategy(StrategyWBF), WithVerify(true))
		if err != nil {
			t.Fatal(err)
		}
		return out.Persons(1)
	}
	scribble := func(data map[PersonID]Pattern) {
		for _, l := range data {
			for i := range l {
				l[i] = 1 << 20
			}
		}
	}
	want := search(startCluster(t, testOptions(), paperScenario()))
	if len(want) == 0 {
		t.Fatal("reference search found nobody")
	}

	data := paperScenario()
	joins, ingested := data[2], map[PersonID]Pattern{14: data[0][14]}
	delete(data, 2)
	delete(data[0], 14)
	c := startCluster(t, testOptions(), data)
	if err := c.AddStation(ctx, Member{ID: 2, Patterns: joins}); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(ctx, 0, ingested); err != nil {
		t.Fatal(err)
	}
	for _, d := range data {
		scribble(d)
	}
	scribble(joins)
	scribble(ingested)
	if got := search(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("answers changed when the caller reused its patterns: %v, want %v", got, want)
	}
}

// TestStationHeapFlatUnderReplacement is the retention gate, counted not
// timed: a station that took its residents from large decoded batches and
// then had every row replaced five times over holds its cells once — about
// 8·length + 32 bytes per resident plus chunk slack — and holds no more after
// the fifth round than after the first. On the parent every decoded arena
// (three slots per value) stayed alive while one of its rows survived. The
// load runs both ways a station takes it: ascending batches that each land
// after every resident, which the store adopts with their decoded arenas,
// and descending batches, which it copies row by row.
func TestStationHeapFlatUnderReplacement(t *testing.T) {
	for _, load := range []string{"adopted", "copied"} {
		t.Run(load, func(t *testing.T) { stationHeapUnderReplacement(t, load == "adopted") })
	}
}

func stationHeapUnderReplacement(t *testing.T, adopted bool) {
	const (
		rows      = 40_000
		length    = 24
		batch     = 5_000
		allowance = 2 << 20 // the station, the test's own rows slice, runtime odds and ends
	)
	rng := rand.New(rand.NewSource(1))
	frame := func(persons []PersonID) wire.Message {
		locals := make([]Pattern, len(persons))
		for i := range locals {
			locals[i] = make(Pattern, length)
			for j := range locals[i] {
				locals[i][j] = rng.Int63n(1_000_000)
			}
		}
		return ingestFrame(t, persons, locals)
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	base := heap()
	s, _ := newStation(1, nil, nil, nil)
	persons := make([]PersonID, rows)
	for i := range persons {
		persons[i] = PersonID(i + 1)
	}
	if !adopted {
		slices.Reverse(persons)
	}
	for at := 0; at < rows; at += batch {
		if _, err := s.handleIngest(frame(persons[at : at+batch])); err != nil {
			t.Fatal(err)
		}
	}
	var after []int64
	for round := 0; round < 5; round++ {
		// Replacements arrive the way a stream delivers them: small batches
		// of persons from all over the store.
		rng.Shuffle(len(persons), func(i, j int) { persons[i], persons[j] = persons[j], persons[i] })
		for at := 0; at < rows; at += 500 {
			if _, err := s.handleIngest(frame(persons[at : at+500])); err != nil {
				t.Fatal(err)
			}
		}
		after = append(after, heap()-base)
	}
	if s.Residents() != rows {
		t.Fatalf("station holds %d residents, want %d", s.Residents(), rows)
	}
	cells := int64(rows * length * 8)
	t.Logf("%d bytes of cells; live heap over the empty station after each round: %v", cells, after)
	if limit := cells*5/4 + allowance; after[4] > limit {
		t.Fatalf("station holds %d bytes for %d bytes of cells (limit %d): %v per round", after[4], cells, limit, after)
	}
	if after[4] > after[0]+allowance/8 {
		t.Fatalf("live heap grows under replacement: %v bytes after each round", after)
	}
	runtime.KeepAlive(s)
}
