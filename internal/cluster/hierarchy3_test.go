package cluster

import (
	"context"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
)

// threeTier wires stations behind leaf regions, leaf regions behind mid
// regions, and mid regions behind a root — regions of regions, so a root
// search crosses three coordinator tiers. With hierData's 12 stations and
// (perLeaf=3, leavesPerMid=2): leaves 200..203 over stations {0-2} {3-5}
// {6-8} {9-11}, mids 100..101 over leaves {200,201} {202,203}.
//
// Shutdown runs top-down like the 2-tier harness: each tier's shutdown
// frame makes the ServeRegion loops below it return without touching their
// sub-clusters, which the test then shuts down itself.
type threeTier struct {
	root   *Cluster
	mids   []*Cluster
	leaves []*Cluster
}

func buildThreeTier(t *testing.T, data map[uint32]map[core.PersonID]pattern.Pattern, perLeaf, leavesPerMid, length int) *threeTier {
	t.Helper()
	var ids []uint32
	for id := range data {
		ids = append(ids, id)
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	tt := &threeTier{}
	rootLinks := make(map[uint32]transport.Link)
	midLinks := make(map[uint32]transport.Link)
	flushMid := func() {
		if len(midLinks) == 0 {
			return
		}
		mc, err := NewWithLinks(Options{}, midLinks, length, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tt.mids = append(tt.mids, mc)
		midID := uint32(100 + len(tt.mids) - 1)
		rootEnd, midEnd := transport.Pipe(nil, nil)
		go func() { _ = ServeRegion(midID, mc, midEnd) }()
		rootLinks[midID] = rootEnd
		midLinks = make(map[uint32]transport.Link)
	}
	for start := 0; start < len(ids); start += perLeaf {
		end := start + perLeaf
		if end > len(ids) {
			end = len(ids)
		}
		sub := make(map[uint32]map[core.PersonID]pattern.Pattern, end-start)
		for _, id := range ids[start:end] {
			sub[id] = data[id]
		}
		lc, err := New(Options{}, sub)
		if err != nil {
			t.Fatal(err)
		}
		lc.Start()
		tt.leaves = append(tt.leaves, lc)
		leafID := uint32(200 + start/perLeaf)
		midEnd, leafEnd := transport.Pipe(nil, nil)
		go func() { _ = ServeRegion(leafID, lc, leafEnd) }()
		midLinks[leafID] = midEnd
		if len(midLinks) == leavesPerMid {
			flushMid()
		}
	}
	flushMid()
	root, err := NewWithLinks(Options{}, rootLinks, length, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tt.root = root
	t.Cleanup(func() {
		_ = root.Shutdown()
		for _, mc := range tt.mids {
			_ = mc.Shutdown()
		}
		for _, lc := range tt.leaves {
			_ = lc.Shutdown()
		}
	})
	return tt
}

// TestThreeTierSearchMatchesFlat is satellite 3's equivalence pin: a
// three-tier hierarchy (regions of regions) answers every routing mode
// byte-identically to a flat full fan-out over the same 12 stations, and
// the cost report shows the query actually descended three tiers.
func TestThreeTierSearchMatchesFlat(t *testing.T) {
	data := hierData()
	flat, err := New(Options{}, data)
	if err != nil {
		t.Fatal(err)
	}
	flat.Start()
	t.Cleanup(func() { _ = flat.Shutdown() })
	tt := buildThreeTier(t, data, 3, 2, 3)

	ctx := context.Background()
	queries := []core.Query{
		{ID: 1, Locals: []pattern.Pattern{{10, 11, 12}}},          // station 0 (leaf 200, mid 100)
		{ID: 2, Locals: []pattern.Pattern{{7010, 7011, 7012}}},    // station 7 (leaf 202, mid 101)
		{ID: 3, Locals: []pattern.Pattern{{40404, 40404, 40404}}}, // empty everywhere
	}
	want, err := flat.Search(ctx, queries, WithRouting(RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []RoutingMode{RoutingFull, RoutingSummary} {
		got, err := tt.root.Search(ctx, queries, WithRouting(mode))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "3-tier "+mode.String(), queries, want, got)
		if got.Cost.TierHops != 3 {
			t.Fatalf("%v TierHops = %d, want 3", mode, got.Cost.TierHops)
		}
		if mode != RoutingFull && got.Cost.StationsPruned == 0 {
			t.Fatalf("%v pruned nothing across three tiers", mode)
		}
	}
}

// TestThreeTierRegionKillDegradation kills one leaf region at depth 2 (from
// its mid-tier parent) and checks graceful degradation seen from the root:
// the severed leaf's residents disappear, everyone else still reports at
// full score, and the partial failure propagates up two coordinator tiers
// into the root's cost report.
func TestThreeTierRegionKillDegradation(t *testing.T) {
	tt := buildThreeTier(t, hierData(), 3, 2, 3)
	ctx := context.Background()
	inKilled := []core.Query{{ID: 1, Locals: []pattern.Pattern{{10, 11, 12}}}}        // person 1, station 0, leaf 200
	elsewhere := []core.Query{{ID: 2, Locals: []pattern.Pattern{{7010, 7011, 7012}}}} // person 22, station 7, leaf 202

	for _, qs := range [][]core.Query{inKilled, elsewhere} {
		out, err := tt.root.Search(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.PerQuery[qs[0].ID]) == 0 || out.Cost.StationsFailed != 0 {
			t.Fatalf("pre-kill search degraded: %+v", out)
		}
	}

	// Sever leaf 200 from mid 100: stations 0-2 (persons 1..9) are gone.
	if err := tt.mids[0].KillStation(200); err != nil {
		t.Fatal(err)
	}

	lost, err := tt.root.Search(ctx, inKilled)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range lost.PerQuery[1] {
		if r.Person <= 9 {
			t.Fatalf("person %d answered from a killed region", r.Person)
		}
	}
	if lost.Cost.StationsFailed == 0 {
		t.Fatal("leaf-region kill did not propagate into the root's failure count")
	}

	kept, err := tt.root.Search(ctx, elsewhere)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept.PerQuery[2]) == 0 || kept.PerQuery[2][0].Person != 22 {
		t.Fatalf("survivors stopped answering after a sibling kill: %v", kept.PerQuery[2])
	}
	if kept.Cost.TierHops != 3 {
		t.Fatalf("post-kill TierHops = %d, want 3", kept.Cost.TierHops)
	}
}
