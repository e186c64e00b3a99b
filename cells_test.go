package dimatch

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dimatch/internal/store/wal"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// allocated returns the bytes op allocates, whatever goroutine allocates
// them.
func allocated(t *testing.T, op func()) uint64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	op()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestStationAllocatesNoInt64Image: every operation on a durable station —
// an ingest whose persist folds the log into a snapshot, a search round, a
// dump, a summary pull and a recovery — allocates less than an int64 image
// of the store's cells would take alone (8 B a cell), recovery less than
// that plus the int32 store it builds. A station that widened its store for
// any of them would pass both. The store is 4 000 residents of length 168,
// so the cells outweigh the per-resident headers the bounds leave room for.
func TestStationAllocatesNoInt64Image(t *testing.T) {
	const residents, length = 4000, 168
	rng := rand.New(rand.NewSource(3))
	seed := make(map[PersonID]Pattern, residents)
	for p := PersonID(1); p <= residents; p++ {
		row := make(Pattern, length)
		for g := range row {
			row[g] = rng.Int63n(20)
		}
		row[0]++
		seed[p*2] = row
	}
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.Options{SnapshotEvery: 1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, end := transport.Pipe(nil, nil)
	s, err := newStation(1, seed, end, st)
	if err != nil {
		t.Fatal(err)
	}
	int64Image := uint64(8 * residents * length)

	fresh := map[PersonID]Pattern{1: seed[2], 3: seed[4], 5: seed[6]}
	ingest := ingestFrame(t, []PersonID{1, 3, 5}, []Pattern{fresh[1], fresh[3], fresh[5]})
	queries := []Query{{ID: 1, Locals: []Pattern{seed[20]}}, {ID: 2, Locals: []Pattern{seed[400]}}}
	round := roundFrame(t, length, queries, 0, 0)
	dump := wire.Message{Kind: wire.KindDump, Payload: wire.EncodePersons([]PersonID{2, 4, 6, 8000})}
	for _, op := range []struct {
		name string
		do   func() (wire.Message, error)
	}{
		{"ingest and fold", func() (wire.Message, error) { return s.handleIngest(ingest) }},
		{"search round", func() (wire.Message, error) { return s.handleBatch(round) }},
		{"dump", func() (wire.Message, error) { return s.handleDump(dump) }},
		{"summary pull", s.handleSummary},
	} {
		var err error
		n := allocated(t, func() { _, err = op.do() })
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		t.Logf("%s allocates %d B; an int64 image is %d B", op.name, n, int64Image)
		if n >= int64Image {
			t.Errorf("%s allocates %d B, an int64 image of the store's %d cells or more", op.name, n, residents*length)
		}
	}
	if st.Generation() == 0 {
		t.Fatal("the ingest's persist did not fold")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st2.Close() }()
	var back *station
	n := allocated(t, func() { back, err = newStation(1, nil, end, st2) })
	if err != nil {
		t.Fatal(err)
	}
	if back.Residents() != residents+len(fresh) {
		t.Fatalf("recovered %d residents, want %d", back.Residents(), residents+len(fresh))
	}
	limit := int64Image + back.residents.HeapBytes()
	t.Logf("recovery allocates %d B; an int64 image and the int32 store are %d B", n, limit)
	if n >= limit {
		t.Errorf("recovery allocates %d B, an int64 image and the store or more (%d B)", n, limit)
	}
}

// TestPatternValueRange: a pattern holding 2³¹ or −2³¹−1 is refused by
// Place, Ingest, a member's seed and newStation with ErrValueRange, and
// nothing of the call is placed or applied; patterns at the int32 edges
// ±(2³¹−1) and −2³¹ are placed, found by a
// verified search (which dumps the candidates' rows) and pulled back from
// the stations value for value.
func TestPatternValueRange(t *testing.T) {
	ctx := context.Background()
	c := startCluster(t, testOptions(), paperScenario()) // length 3
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Pattern{{1 << 31, 0, 0}, {0, 0, -(1 << 31) - 1}} {
		batch := map[PersonID]Pattern{900: {1, 1, 1}, 901: bad}
		if unplaced, err := c.place(ctx, batch); !errors.Is(err, ErrValueRange) || len(unplaced) != len(batch) {
			t.Fatalf("Place of %v: err %v, %d of %d unplaced; want ErrValueRange and all", bad, err, len(unplaced), len(batch))
		}
		if err := c.Ingest(ctx, 0, batch); !errors.Is(err, ErrValueRange) {
			t.Fatalf("Ingest of %v: err %v, want ErrValueRange", bad, err)
		}
		if err := c.AddStation(ctx, Member{ID: 77, Patterns: batch}); !errors.Is(err, ErrValueRange) {
			t.Fatalf("AddStation seeded with %v: err %v, want ErrValueRange", bad, err)
		}
		if _, err := newStation(78, batch, nil, nil); !errors.Is(err, ErrValueRange) {
			t.Fatalf("newStation seeded with %v: err %v, want ErrValueRange", bad, err)
		}
	}
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Placed() != 0 || after.TotalResidents() != before.TotalResidents() || c.Stations() != len(before.Stations) {
		t.Fatalf("refused calls left %d placed, %d → %d residents, %d stations", c.Placed(), before.TotalResidents(), after.TotalResidents(), c.Stations())
	}

	// Queries are non-negative; a stored pattern need not be.
	extremes := map[PersonID]Pattern{
		900: {math.MaxInt32, math.MaxInt32, math.MaxInt32},
		901: {math.MinInt32, math.MaxInt32, 2},
		902: {-math.MaxInt32, math.MaxInt32, 1},
	}
	if err := c.Place(ctx, extremes); err != nil {
		t.Fatal(err)
	}
	out, err := c.Search(ctx, []Query{{ID: 1, Locals: []Pattern{extremes[900]}}}, WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range out.PerQuery[1] {
		found = found || (r.Person == 900 && r.Score() == 1)
	}
	if !found {
		t.Fatalf("verified search for the extreme pattern: %v, want person 900 at score 1", out.PerQuery[1])
	}
	pulled := map[PersonID]Pattern{}
	if _, err := c.pullPatterns(ctx, c.currentEpoch(), []PersonID{900, 901, 902}, &CostReport{}, func(p PersonID, l Pattern) {
		pulled[p] = l
	}); err != nil {
		t.Fatal(err)
	}
	for p, want := range extremes {
		if !pulled[p].Equal(want) {
			t.Fatalf("person %d pulled back as %v, want %v", p, pulled[p], want)
		}
	}
}
