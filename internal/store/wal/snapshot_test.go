package wal

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// Snapshot files a station folded while snapshots still carried its routing
// digest: one resident chunk (persons 10–15, patterns of length 3), a now
// retired 0x12 digest record, and the seal (6 residents).
// adaptedSnapshotHex's digest was built under an adaptive parameter plan
// (wire Version 14): a summary payload with hash-count field 0 followed by
// the plan's geometry table. staticSnapshotHex's is index.Build's static
// digest (wire Version 15, hash count 7).
const (
	adaptedSnapshotHex = "4431534e012000000001682c4811060a030204060b03080a0c0c030e10120d0304080c0e03060a0e0f03101214" +
		"420000009f8024f012000306719a3d0cbfe5a751000100000000000000120485aaaa04c434700009010413060e783c8000500005200204a0201108412000080140040140040180010401" +
		"0900000089901f531f0600000000000000"
	staticSnapshotHex = "4431534e012000000001682c4811060a030204060b03080a0c0c030e10120d0304080c0e03060a0e0f03101214" +
		"370000006dc6670312000306719a3d0cbfe5a7510001000000000000071204c0b25a1191a6f486a988df2b4674392843012025459c162864b00809011e181d" +
		"0900000089901f531f0600000000000000"
)

// TestSnapshotDropsAdaptiveDigest: a snapshot carrying a retired digest
// record, adaptive or static, recovers every resident, and the recovered
// station serves a fresh digest the coordinator can probe.
func TestSnapshotDropsAdaptiveDigest(t *testing.T) {
	for name, fixtureHex := range map[string]string{"adaptive": adaptedSnapshotHex, "static": staticSnapshotHex} {
		t.Run(name, func(t *testing.T) { checkRetiredDigestSnapshot(t, mustHex(t, fixtureHex)) })
	}
}

// checkRetiredDigestSnapshot decodes one fixture, then boots a station over
// it beside a second member and searches every recovered resident.
func checkRetiredDigestSnapshot(t *testing.T, fixture []byte) {
	img, err := decodeSnapshot[pattern.Pattern](fixture)
	if err != nil {
		t.Fatalf("decodeSnapshot: %v", err)
	}
	wantPersons := []core.PersonID{10, 11, 12, 13, 14, 15}
	wantLocals := []pattern.Pattern{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {2, 4, 6}, {3, 5, 7}, {8, 9, 10}}
	if !reflect.DeepEqual(img.Persons, wantPersons) || !reflect.DeepEqual(img.Locals, wantLocals) {
		t.Fatalf("recovered %v %v, want %v %v", img.Persons, img.Locals, wantPersons, wantLocals)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000001.snap"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two members, so the routed search fetches and probes both digests.
	c, err := cluster.New(cluster.Options{}, 3,
		cluster.Member{ID: 1, Store: st},
		cluster.Member{ID: 2, Patterns: map[core.PersonID]pattern.Pattern{20: {100, 100, 100}}})
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
	for i, local := range wantLocals {
		out, err := c.Search(ctx, []core.Query{{ID: 1, Locals: []pattern.Pattern{local}}})
		if err != nil {
			t.Fatal(err)
		}
		if rs := out.PerQuery[1]; len(rs) == 0 || rs[0].Person != wantPersons[i] || rs[0].Score() != 1 {
			t.Fatalf("query for person %d answered %v", wantPersons[i], rs)
		}
	}
	// Both digests decoded and were cached: the recovered station served a
	// fresh one.
	if n := c.RoutingState().Entries; n != 2 {
		t.Fatalf("%d digests cached, want 2", n)
	}
}
