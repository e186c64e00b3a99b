package dimatch

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
)

// TestPlaceAllocatesPerCopy pins what a bulk Place allocates: 20 000 persons
// of length 24 placed at R = 2 over in-process pipes into 16 empty stations,
// counted as TotalAlloc per placed copy. Coordinator and stations share the
// process, so the figure covers the plan, the placement table, every
// station's ingest frame and the rows each station decodes and keeps.
//
// Measured on linux/amd64 with go1.24.0, with and without -race: 381 B per
// copy. The same run allocated 484 B per copy while Place copied every
// station's rows into per-station arrays (32 B per copy) before encoding,
// grew the placement map step by step, and the pipe copied each frame a
// second time on receipt. The bound sits between the two.
func TestPlaceAllocatesPerCopy(t *testing.T) {
	const persons, stations, length, r = 20_000, 16, 24, 2
	const bound = 430 // bytes per copy
	rng := rand.New(rand.NewSource(1))
	patterns := make(map[PersonID]Pattern, persons)
	for p := PersonID(1); p <= persons; p++ {
		pat := make(Pattern, length)
		for i := range pat {
			pat[i] = rng.Int63n(1000)
		}
		pat[0]++
		patterns[p] = pat
	}
	ids := make([]uint32, stations)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	c, err := NewCluster(placedOptions(), length, emptyMembers(ids)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	unplaced, err := c.place(context.Background(), patterns, WithReplication(r))
	runtime.ReadMemStats(&after)
	if err != nil || len(unplaced) != 0 {
		t.Fatalf("Place: %d unplaced, %v", len(unplaced), err)
	}
	perCopy := float64(after.TotalAlloc-before.TotalAlloc) / (r * persons)
	t.Logf("Place allocates %.1f B per placed copy", perCopy)
	if perCopy > bound {
		t.Fatalf("Place allocates %.1f B per placed copy; want ≤ %d", perCopy, bound)
	}
}
