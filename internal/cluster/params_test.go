package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dimatch/internal/adapt"
	"dimatch/internal/core"
	"dimatch/internal/index"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// paramTestCluster is routingTestCluster's shape (well-separated magnitudes,
// single-target queries) with enough residents per station that the static
// memory budget covers one filter word per position — the floor below which
// stations intentionally refuse a plan and stay static.
func paramTestCluster(t *testing.T) *Cluster {
	t.Helper()
	data := make(map[uint32]map[core.PersonID]pattern.Pattern, 4)
	for s := uint32(0); s < 4; s++ {
		scale := int64(1)
		for i := uint32(0); i < s; i++ {
			scale *= 10
		}
		st := make(map[core.PersonID]pattern.Pattern, 5)
		for j := int64(0); j < 5; j++ {
			pid := core.PersonID(10*(s+1)) + core.PersonID(j)
			st[pid] = pattern.Pattern{(1 + j) * scale, (2 + j) * scale, (3 + j) * scale}
		}
		data[s] = st
	}
	c, err := New(Options{}, data)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { _ = c.Shutdown() })
	return c
}

func testPlan(epoch uint64, length int) *index.Plan {
	groups := make([]index.PlanGroup, length)
	for i := range groups {
		groups[i] = index.PlanGroup{Weight: uint32(i + 1), Hashes: 4, Quantum: 1}
	}
	return &index.Plan{Epoch: epoch, Seed: index.DefaultSeed, Length: length, Groups: groups}
}

func paramUpdateMsg(t *testing.T, epoch uint64, plan *index.Plan) wire.Message {
	t.Helper()
	m, err := wire.EncodeParamUpdate(wire.ParamUpdate{Epoch: epoch, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func stationAck(t *testing.T, s *Station, msg wire.Message) wire.ParamAck {
	t.Helper()
	reply, err := s.handleParamUpdate(msg)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := wire.DecodeParamAck(*reply)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

func stationDigest(t *testing.T, s *Station) *index.Summary {
	t.Helper()
	reply, err := s.handleSummary()
	if err != nil {
		t.Fatal(err)
	}
	_, sum, err := wire.DecodeSummaryReply(*reply)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestStationParamUpdateLifecycle walks one station through the whole
// parameter protocol: apply, superseded-frame rejection, reset to static,
// and the degrade paths (mismatched plan shape, empty store) — every
// failure leaves the station on the exact static table.
func TestStationParamUpdateLifecycle(t *testing.T) {
	// Five residents keep the static budget above one filter word per
	// position; smaller stores refuse any plan by design (covered below).
	st := NewStation(1, map[core.PersonID]pattern.Pattern{
		10: {1, 2, 3}, 11: {4, 5, 6}, 12: {7, 8, 9}, 13: {2, 4, 6}, 14: {3, 5, 7},
	}, nil)

	// Before any update the digest is the static table.
	if sum := stationDigest(t, st); sum.Adaptive() {
		t.Fatal("fresh station serves an adaptive digest")
	}

	// Epoch 1 installs the plan; the digest rebuilds under it.
	ack := stationAck(t, st, paramUpdateMsg(t, 1, testPlan(1, 3)))
	if !ack.Applied || ack.Epoch != 1 || ack.Station != 1 {
		t.Fatalf("apply ack = %+v", ack)
	}
	if sum := stationDigest(t, st); !sum.Adaptive() || sum.AdaptiveEpoch() != 1 {
		t.Fatalf("digest after apply: adaptive=%v epoch=%d", sum.Adaptive(), sum.AdaptiveEpoch())
	}

	// A reordered frame from a superseded epoch must not roll back.
	ack = stationAck(t, st, paramUpdateMsg(t, 0, nil))
	if !ack.Applied || ack.Epoch != 1 {
		t.Fatalf("stale frame changed state: %+v", ack)
	}

	// Ingest keeps the plan: the rebuilt digest covers the new resident and
	// stays adaptive under the same epoch.
	in, err := wire.EncodeIngest(wire.Ingest{Persons: []core.PersonID{15}, Locals: []pattern.Pattern{{8, 9, 10}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.handleIngest(in); err != nil {
		t.Fatal(err)
	}
	if sum := stationDigest(t, st); !sum.Adaptive() || sum.Residents() != 6 {
		t.Fatalf("digest after ingest: adaptive=%v residents=%d", sum.Adaptive(), sum.Residents())
	}

	// A plan the store cannot honor (wrong length) degrades to static.
	ack = stationAck(t, st, paramUpdateMsg(t, 2, testPlan(2, 5)))
	if ack.Applied || ack.Epoch != 2 {
		t.Fatalf("mismatched plan ack = %+v", ack)
	}
	if sum := stationDigest(t, st); sum.Adaptive() {
		t.Fatal("mismatched plan left an adaptive digest behind")
	}

	// Re-apply, then an explicit reset.
	if ack = stationAck(t, st, paramUpdateMsg(t, 3, testPlan(3, 3))); !ack.Applied {
		t.Fatalf("re-apply ack = %+v", ack)
	}
	if ack = stationAck(t, st, paramUpdateMsg(t, 4, nil)); ack.Applied || ack.Epoch != 4 {
		t.Fatalf("reset ack = %+v", ack)
	}
	if sum := stationDigest(t, st); sum.Adaptive() {
		t.Fatal("reset left an adaptive digest behind")
	}

	// An empty station cannot match any plan length: it stays static.
	empty := NewStation(2, nil, nil)
	if ack := stationAck(t, empty, paramUpdateMsg(t, 1, testPlan(1, 3))); ack.Applied {
		t.Fatal("empty station claimed to apply a plan")
	}

	// A store too small for one filter word per group refuses the plan too.
	tiny := NewStation(3, map[core.PersonID]pattern.Pattern{10: {1, 2, 3}}, nil)
	if ack := stationAck(t, tiny, paramUpdateMsg(t, 1, testPlan(1, 3))); ack.Applied {
		t.Fatal("tiny station applied a plan its budget cannot fit")
	}
	if sum := stationDigest(t, tiny); sum.Adaptive() {
		t.Fatal("tiny station serves an adaptive digest")
	}
}

// TestRederiveParamsRollout is the tentpole's coordinator pin: traffic in,
// epoch-atomic rollout out — every capable station rebuilds adaptively
// under the new epoch, searches answer exactly as before at the same
// memory, and the live epoch is stamped into every search's cost report.
func TestRederiveParamsRollout(t *testing.T) {
	c := paramTestCluster(t)
	ctx := context.Background()

	// No traffic yet: nothing to derive from, and the previous (static)
	// state stays untouched.
	if _, err := c.RederiveParams(ctx); !errors.Is(err, adapt.ErrNoTraffic) {
		t.Fatalf("cold rederive err = %v, want ErrNoTraffic", err)
	}

	queries := []core.Query{
		{ID: 1, Locals: []pattern.Pattern{{50, 60, 70}}},          // station 1's resident
		{ID: 2, Locals: []pattern.Pattern{{40404, 40404, 40404}}}, // empty everywhere: emptiness feedback
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Search(ctx, queries); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.TrafficSnapshot()
	if snap.Queries == 0 {
		t.Fatal("routed searches fed no traffic into the profiler")
	}

	roll, err := c.RederiveParams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if roll.Epoch != 1 || roll.Plan == nil || roll.Plan.Epoch != 1 || roll.Plan.Length != 3 {
		t.Fatalf("rollout = %+v", roll)
	}
	if len(roll.Applied) != 4 || len(roll.Static) != 0 || len(roll.Skipped) != 0 || len(roll.Failed) != 0 {
		t.Fatalf("rollout coverage: %+v", roll)
	}
	if epoch, plan := c.ParamState(); epoch != 1 || !plan.Equal(roll.Plan) {
		t.Fatalf("ParamState = (%d, %+v)", epoch, plan)
	}

	// Post-rollout searches answer byte-identically to full fan-out, keep
	// pruning, and pin the new epoch.
	full, err := c.Search(ctx, queries, WithRouting(RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	routed, err := c.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "adaptive", queries, full, routed)
	if routed.Cost.ParamEpoch != 1 {
		t.Fatalf("routed ParamEpoch = %d, want 1", routed.Cost.ParamEpoch)
	}
	// At least two of the three off-target stations must still prune
	// (the adaptive digests keep their ~1% fp budget, so we don't pin
	// an exact count).
	if routed.Cost.StationsPruned < 2 {
		t.Fatalf("routed StationsPruned = %d, want >= 2", routed.Cost.StationsPruned)
	}
	if full.Cost.ParamEpoch != 1 {
		t.Fatalf("full fan-out ParamEpoch = %d, want 1", full.Cost.ParamEpoch)
	}

	// The refetched digests really were built under the rollout epoch.
	id := c.currentEpoch().ids[0]
	sum, _ := c.summaries.get(id)
	if sum == nil || !sum.Adaptive() || sum.AdaptiveEpoch() != 1 {
		t.Fatalf("cached digest for station %d not adaptive at epoch 1: %+v", id, sum)
	}

	// A joining empty station cannot honor the plan and lands in Static; a
	// second derivation advances the epoch atomically for everyone else.
	if err := c.AddStation(ctx, 9, nil); err != nil {
		t.Fatal(err)
	}
	roll2, err := c.RederiveParams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if roll2.Epoch != 2 || len(roll2.Applied) != 4 {
		t.Fatalf("second rollout = %+v", roll2)
	}
	if len(roll2.Static) != 1 || roll2.Static[0] != 9 {
		t.Fatalf("empty station not reported static: %+v", roll2)
	}
}

// TestResetParams pins the freeze/revert control: a reset rolls every
// station back onto the static table under a fresh epoch and clears the
// traffic window, and searches keep answering exactly as before.
func TestResetParams(t *testing.T) {
	c := paramTestCluster(t)
	ctx := context.Background()
	queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{{50, 60, 70}}}}
	for i := 0; i < 5; i++ {
		if _, err := c.Search(ctx, queries); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.RederiveParams(ctx); err != nil {
		t.Fatal(err)
	}

	roll, err := c.ResetParams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if roll.Epoch != 2 || roll.Plan != nil || len(roll.Static) != 4 || len(roll.Applied) != 0 {
		t.Fatalf("reset rollout = %+v", roll)
	}
	if epoch, plan := c.ParamState(); epoch != 2 || plan != nil {
		t.Fatalf("ParamState after reset = (%d, %+v)", epoch, plan)
	}
	if snap := c.TrafficSnapshot(); snap.Queries != 0 {
		t.Fatalf("reset left %v profiled queries", snap.Queries)
	}

	full, err := c.Search(ctx, queries, WithRouting(RoutingFull))
	if err != nil {
		t.Fatal(err)
	}
	routed, err := c.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "post-reset", queries, full, routed)
	id := c.currentEpoch().ids[1]
	if sum, _ := c.summaries.get(id); sum == nil || sum.Adaptive() {
		t.Fatalf("station %d digest still adaptive after reset: %+v", id, sum)
	}
}

// TestRederiveParamsSkipsUnflaggedPeers pins the rollout's side of the
// capability rule: a peer with no entry in the stats snapshot cannot be told
// from a region coordinator, so it is skipped, and a known route delegate
// adapts its own tier instead of taking a leaf plan from above.
func TestRederiveParamsSkipsUnflaggedPeers(t *testing.T) {
	plainCenter, plainStation := transport.Pipe(nil, nil)
	// The plain station needs enough residents for its static budget to
	// cover the plan (see paramTestCluster); the skipped one's size is
	// irrelevant.
	plainLocals := map[core.PersonID]pattern.Pattern{
		10: {1, 2, 3}, 11: {2, 3, 4}, 12: {3, 4, 5}, 13: {4, 5, 6}, 14: {5, 6, 7},
	}
	go func() {
		_ = NewStation(1, plainLocals, plainStation).Serve()
	}()
	noStats := flakyStatsStation(2, map[core.PersonID]pattern.Pattern{20: {50, 60, 70}})

	// A region coordinator hangs off the same center: its stats advertise
	// the delegate flag, which must exempt it from leaf-plan rollouts.
	inner, err := New(Options{}, map[uint32]map[core.PersonID]pattern.Pattern{
		7: {30: {500, 600, 700}, 31: {550, 660, 770}},
		8: {40: {5000, 6000, 7000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	inner.Start()
	t.Cleanup(func() { _ = inner.Shutdown() })
	regionCenter, regionEnd := transport.Pipe(nil, nil)
	go func() { _ = ServeRegion(100, inner, regionEnd) }()

	c, err := NewWithLinks(Options{}, map[uint32]transport.Link{
		1: plainCenter, 2: noStats, 100: regionCenter,
	}, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ctx := context.Background()
	queries := []core.Query{{ID: 1, Locals: []pattern.Pattern{{1, 2, 3}}}}
	for i := 0; i < 5; i++ {
		if _, err := c.Search(ctx, queries); err != nil {
			t.Fatal(err)
		}
	}
	roll, err := c.RederiveParams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(roll.Applied) != 1 || roll.Applied[0] != 1 {
		t.Fatalf("Applied = %v, want [1]", roll.Applied)
	}
	if len(roll.Skipped) != 2 || roll.Skipped[0] != 2 || roll.Skipped[1] != 100 {
		t.Fatalf("Skipped = %v, want [2 100] (station without a stats entry and region delegate)", roll.Skipped)
	}

	// All three peer classes keep answering together after the rollout.
	out, err := c.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerQuery[1]) == 0 || out.PerQuery[1][0].Person != 10 {
		t.Fatalf("search after the rollout lost the match: %v", out.PerQuery[1])
	}
	deep, err := c.Search(ctx, []core.Query{{ID: 9, Locals: []pattern.Pattern{{500, 600, 700}}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(deep.PerQuery[9]) == 0 || deep.PerQuery[9][0].Person != 30 {
		t.Fatalf("search through skipped region lost the match: %v", deep.PerQuery[9])
	}
}

// TestAdaptiveChurnEquivalence is satellite 2, meant for -race runs: a live
// cluster churns (ingest/evict) while parameter epochs roll — sequentially
// first, then concurrently with in-flight searches — and every answer must
// be identical to a static twin fed the exact same mutations and queries.
// The stamped parameter epoch never regresses across sequential searches:
// each search runs under exactly one epoch, never a mix.
func TestAdaptiveChurnEquivalence(t *testing.T) {
	const stations, length = 6, 4
	seedData := func() map[uint32]map[core.PersonID]pattern.Pattern {
		data := make(map[uint32]map[core.PersonID]pattern.Pattern, stations)
		pid := core.PersonID(1)
		for s := uint32(0); s < stations; s++ {
			// Six residents per station: enough static budget that plans
			// actually apply, so the churn runs genuinely mixed digests.
			st := make(map[core.PersonID]pattern.Pattern, 6)
			base := int64(s)*100 + 10
			for j := int64(0); j < 6; j++ {
				st[pid] = pattern.Pattern{base + j, base + 2*j + 1, base + 3*j, base + j + 2}
				pid++
			}
			data[s] = st
		}
		return data
	}
	adaptive, err := New(Options{AdaptWindow: 4096}, seedData())
	if err != nil {
		t.Fatal(err)
	}
	adaptive.Start()
	t.Cleanup(func() { _ = adaptive.Shutdown() })
	staticTwin, err := New(Options{}, seedData())
	if err != nil {
		t.Fatal(err)
	}
	staticTwin.Start()
	t.Cleanup(func() { _ = staticTwin.Shutdown() })

	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	next := core.PersonID(1000)
	type placedAt struct {
		person  core.PersonID
		station uint32
	}
	var live []placedAt
	randQueries := func() []core.Query {
		base := rng.Int63n(int64(stations) * 100)
		return []core.Query{
			{ID: 1, Locals: []pattern.Pattern{{base + 10, base + 11, base + 10, base + 12}}},
			{ID: 2, Locals: []pattern.Pattern{{9000, 9000, 9000, 9000}}}, // always empty
		}
	}
	compare := func(label string, queries []core.Query) uint64 {
		t.Helper()
		got, err := adaptive.Search(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		want, err := staticTwin.Search(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, label, queries, want, got)
		return got.Cost.ParamEpoch
	}

	lastEpoch := uint64(0)
	for step := 0; step < 30; step++ {
		if len(live) == 0 || rng.Intn(2) == 0 {
			p, s := next, uint32(rng.Intn(stations))
			next++
			pat := pattern.Pattern{1 + rng.Int63n(600), 1 + rng.Int63n(600), 1 + rng.Int63n(600), 1 + rng.Int63n(600)}
			for _, c := range []*Cluster{adaptive, staticTwin} {
				if err := c.Ingest(ctx, s, map[core.PersonID]pattern.Pattern{p: pat}); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live, placedAt{person: p, station: s})
		} else {
			i := rng.Intn(len(live))
			for _, c := range []*Cluster{adaptive, staticTwin} {
				if err := c.Evict(ctx, live[i].station, []core.PersonID{live[i].person}); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live[:i], live[i+1:]...)
		}
		epoch := compare(fmt.Sprintf("churn step %d", step), randQueries())
		if epoch < lastEpoch {
			t.Fatalf("step %d: parameter epoch regressed %d -> %d", step, lastEpoch, epoch)
		}
		lastEpoch = epoch
		if step%7 == 3 {
			if _, err := adaptive.RederiveParams(ctx); err != nil && !errors.Is(err, adapt.ErrNoTraffic) {
				t.Fatal(err)
			}
		}
	}
	if epoch, _ := adaptive.ParamState(); epoch == 0 {
		t.Fatal("no parameter epoch ever rolled during churn")
	}

	// Concurrent phase: rollouts and resets race in-flight searches. Every
	// answer still matches the static twin — a digest swap mid-search is
	// invisible in results.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			_, _ = adaptive.RederiveParams(ctx)
			if i%3 == 2 {
				_, _ = adaptive.ResetParams(ctx)
			}
		}
	}()
	for i := 0; i < 20; i++ {
		compare(fmt.Sprintf("concurrent step %d", i), randQueries())
	}
	wg.Wait()
}
