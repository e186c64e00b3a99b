package wal_test

import (
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"dimatch"
	"dimatch/internal/store/wal"
)

// TestRetiredDigestSnapshotServesSearch boots a station over each
// retired-digest snapshot beside a second member and searches every
// recovered resident: the recovered station serves a fresh digest the
// coordinator can probe.
func TestRetiredDigestSnapshotServesSearch(t *testing.T) {
	for name, fixtureHex := range wal.RetiredDigestSnapshots {
		t.Run(name, func(t *testing.T) {
			fixture, err := hex.DecodeString(fixtureHex)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000001.snap"), fixture, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Two members, so the routed search fetches and probes both digests.
			c, err := dimatch.NewCluster(dimatch.Options{}, 3,
				dimatch.Member{ID: 1, Store: st},
				dimatch.Member{ID: 2, Patterns: map[dimatch.PersonID]dimatch.Pattern{20: {100, 100, 100}}})
			if err != nil {
				t.Fatalf("station refused its recovered store: %v", err)
			}
			defer func() { _ = c.Shutdown() }()
			ctx := context.Background()
			stats, err := c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := stats.TotalResidents(); got != 7 {
				t.Fatalf("cluster holds %d residents, want 6 recovered + 1", got)
			}
			for i, local := range wal.RetiredDigestLocals {
				out, err := c.Search(ctx, []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{local}}})
				if err != nil {
					t.Fatal(err)
				}
				want := wal.RetiredDigestPersons[i]
				if rs := out.PerQuery[1]; len(rs) == 0 || rs[0].Person != want || rs[0].Score() != 1 {
					t.Fatalf("query for person %d answered %v", want, rs)
				}
			}
			// Both digests decoded and were cached: the recovered station
			// served a fresh one.
			if n := c.RoutingState().Entries; n != 2 {
				t.Fatalf("%d digests cached, want 2", n)
			}
		})
	}
}
