package dimatch

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
)

// maxBytesPerUpsert bounds what one streamed upsert allocates end to end on
// TestWritePathAllocationPerUpsert's cluster: twice the ≈ 2.5 KB measured
// (Go 1.24, linux/amd64, 2.44 KB plain and 2.53 KB under -race). Copying
// every touched station's cached routing digest on each flush put the
// figure at 12.5–16 KB.
const maxBytesPerUpsert = 5 << 10

// TestWritePathAllocationPerUpsert is the write path's allocation gate: 4096
// upserts — fresh persons and replacements — streamed over in-process pipes
// into 16 stations of 4 000 residents each whose digests the coordinator has
// cached, flushed every 128 submissions. Everything the write allocates
// counts: the pipeline's batches, the frames, the station's decoded rows
// and the coordinator's delta into each digest, which must not copy it.
func TestWritePathAllocationPerUpsert(t *testing.T) {
	ctx := context.Background()
	const (
		length   = 24
		initial  = 32_000
		upserts  = 4096
		perFlush = 128
	)
	rng := rand.New(rand.NewSource(1))
	draw := func() Pattern {
		pat := make(Pattern, length)
		for i := range pat {
			pat[i] = rng.Int63n(40)
		}
		pat[0]++
		return pat
	}
	stations := make([]uint32, 16)
	for i := range stations {
		stations[i] = uint32(i + 1)
	}
	c := newStreamCluster(t, stations, length)
	seed := make(map[PersonID]Pattern, initial)
	for p := PersonID(1); p <= initial; p++ {
		seed[p] = draw()
	}
	if unplaced, err := c.place(ctx, seed, WithReplication(2)); err != nil || len(unplaced) > 0 {
		t.Fatalf("Place: %v unplaced, %v", unplaced, err)
	}
	warm, err := c.Search(ctx, []Query{{ID: 1, Locals: []Pattern{seed[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RoutingState().Entries; got != len(stations) || warm.Cost.SummaryRefreshes != 0 {
		t.Fatalf("%d digests cached after %d refreshes, want %d after 0 (Place handed them over)", got, warm.Cost.SummaryRefreshes, len(stations))
	}
	in, err := c.Stream(StreamOptions{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = in.Close() }()
	batch := make([]Pattern, upserts)
	persons := make([]PersonID, upserts)
	for i := range batch {
		batch[i] = draw()
		persons[i] = initial + 1 + PersonID(i)
		if i%2 == 1 {
			persons[i] = PersonID(1 + rng.Intn(initial)) // a replacement
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, p := range persons {
		if err := in.Submit(ctx, p, batch[i]); err != nil {
			t.Fatal(err)
		}
		if (i+1)%perFlush == 0 {
			if err := in.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)

	out, err := c.Search(ctx, []Query{{ID: 1, Locals: []Pattern{batch[0]}}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost.SummaryRefreshes != 0 {
		t.Fatalf("a search after the stream refetched %d digests: the deltas did not land in the cached ones", out.Cost.SummaryRefreshes)
	}
	perUpsert := (after.TotalAlloc - before.TotalAlloc) / upserts
	t.Logf("%d B allocated per upsert", perUpsert)
	if perUpsert > maxBytesPerUpsert {
		t.Fatalf("one streamed upsert allocates %d B; want ≤ %d", perUpsert, maxBytesPerUpsert)
	}
}
