// Command di-cluster runs a genuinely distributed DI-matching deployment:
// one process per node, talking over TCP.
//
// Start the data center first, then one process per station (both sides
// regenerate the same synthetic city from the shared seed, so stations know
// their local data and the center knows the pattern length):
//
//	di-cluster -role center -listen 127.0.0.1:4620 -stations 4 &
//	di-cluster -role station -connect 127.0.0.1:4620 -stations 4 -station 0 &
//	di-cluster -role station -connect 127.0.0.1:4620 -stations 4 -station 1 &
//	...
//
// -persons, -seed and -stations must match on every node: they define the
// shared city and its sharding.
//
// The center waits for all stations, searches for customers similar to a
// reference person, prints the ranked answer plus cost accounting, and
// shuts the stations down.
//
// With -churn the command instead runs a single-process live-cluster demo
// of the lifecycle API: it starts a cluster missing one station, measures
// precision/recall, then — while background searches keep running — grows
// the cluster with AddStation, ingests a brand-new person, evicts them
// again and finally removes the station, printing precision/recall after
// every step.
//
// With -churn -replicas N the demo runs the replicated placement layer
// instead: an empty cluster, every person's global pattern placed onto N
// rendezvous-hashed replicas, then — with background searches in flight —
// one station is killed and another removed. The command asserts that
// recall never drops below the healthy cluster's value (the replica
// guarantee) and exits non-zero if it does, which makes it CI's replication
// chaos smoke test.
//
// With -stream the command runs the streaming-ingest demo instead: an empty
// replicated cluster fed through Cluster.Stream pipelines. It streams a warm
// cohort, sustains -rate patterns/sec for -window while background searches
// run and a station is killed mid-ingest, expires a TTL cohort (-ttl) and
// shows recall before/after the churn, and saturates a tiny shed-mode
// pipeline to demonstrate accounted load-shedding. It exits non-zero unless
// every acknowledged pattern survives the kill with recall 1.0 — CI's
// streaming chaos smoke test.
//
// With -tiers 2 the command runs the hierarchical-routing chaos smoke
// instead: a two-tier deployment where region coordinators (dimatch.
// ServeRegion) sit between the center and its stations over real TCP links.
// Every person is placed at R>=2 across regions, tree-routed searches run
// against a full fan-out reference (results must match exactly), and one
// region coordinator is killed mid-search — taking its whole subtree with
// it. Cross-region replicas must hold recall at the healthy value; any drop
// or result divergence exits non-zero, which makes this CI's hierarchy
// chaos smoke test. -fanout sets the digest-tree fanout at every
// coordinator (0 keeps the library default); see docs/ROUTING.md for how to
// choose it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	"dimatch"
)

func main() {
	var (
		role      = flag.String("role", "center", "node role: center or station")
		listen    = flag.String("listen", "127.0.0.1:4620", "center: address to listen on")
		connect   = flag.String("connect", "127.0.0.1:4620", "station: center address to dial")
		stations  = flag.Int("stations", 4, "center: number of stations to wait for")
		station   = flag.Uint("station", 0, "station: this node's station index (0-based)")
		persons   = flag.Int("persons", 310, "synthetic city population")
		seed      = flag.Uint64("seed", 1, "synthetic city seed (must match across nodes)")
		ref       = flag.Uint64("ref", 0, "center: reference person to search for")
		topK      = flag.Int("topk", 10, "center: result size")
		strategy  = flag.String("strategy", "wbf", "center: search strategy (naive, bf, wbf)")
		queries   = flag.Int("queries", 1, "center: total queries in the search batch (the reference person, padded with further references)")
		batch     = flag.Int("batch", 0, "center: WithBatching bound: 0 packs all queries into one wire exchange per station, n>=1 splits into rounds of n queries")
		routing   = flag.String("routing", "summary", "center: fan-out routing mode: summary (prune stations via cached summaries) or full (classic every-station fan-out)")
		timeout   = flag.Duration("timeout", time.Minute, "center: per-search deadline (0 for none)")
		churn     = flag.Bool("churn", false, "run the in-process live-mutation demo (ignores -role)")
		replicas  = flag.Int("replicas", 0, "with -churn: run the replicated-placement chaos demo at this replication factor (0 keeps the station-addressed demo)")
		stream    = flag.Bool("stream", false, "run the in-process streaming-ingest demo and chaos smoke (ignores -role)")
		rate      = flag.Int("rate", 20000, "with -stream: offered ingest rate in patterns/sec")
		ttl       = flag.Duration("ttl", 1500*time.Millisecond, "with -stream: pattern time-to-live for the churn phase")
		window    = flag.Duration("window", 2*time.Second, "with -stream: sustained-ingest window")
		storeKind = flag.String("store", "memory", "station: resident store backend: memory or wal")
		dir       = flag.String("dir", "", "station: WAL store directory (required with -store wal)")
		empty     = flag.Bool("empty", false, "station: start with no local data (residents arrive via recovery and placement)")
		recovery  = flag.Bool("recover", false, "run the kill-9 station-recovery chaos smoke (ignores -role)")
		tiers     = flag.Int("tiers", 1, "deployment depth: 1 is flat; 2 runs the hierarchical chaos smoke (region coordinators between center and stations, ignores -role)")
		fanout    = flag.Int("fanout", 0, "digest-tree fanout at every coordinator (0 uses the library default)")
	)
	flag.Parse()

	cfg := dimatch.DefaultCityConfig()
	cfg.Persons = *persons
	cfg.Seed = *seed

	var err error
	if *tiers > 1 {
		if *tiers > 2 {
			fmt.Fprintln(os.Stderr, "di-cluster: -tiers supports 1 (flat) or 2 (regions); deeper stacks nest ServeRegion the same way")
			os.Exit(1)
		}
		if err := runHierarchyChurn(cfg, *replicas, *fanout); err != nil {
			fmt.Fprintln(os.Stderr, "di-cluster:", err)
			os.Exit(1)
		}
		return
	}
	if *recovery {
		if err := runRecoveryChurn(cfg, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "di-cluster:", err)
			os.Exit(1)
		}
		return
	}
	if *stream {
		if err := runStream(*stations, *rate, *ttl, *window, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "di-cluster:", err)
			os.Exit(1)
		}
		return
	}
	if *churn {
		run := runChurn
		if *replicas > 0 {
			run = func(cfg dimatch.CityConfig) error { return runReplicatedChurn(cfg, *replicas) }
		}
		if err := run(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "di-cluster:", err)
			os.Exit(1)
		}
		return
	}
	switch *role {
	case "center":
		var strat dimatch.Strategy
		strat, err = dimatch.ParseStrategy(*strategy)
		var route dimatch.RoutingMode
		if err == nil {
			route, err = dimatch.ParseRoutingMode(*routing)
		}
		if err == nil {
			err = runCenter(cfg, *listen, *stations, dimatch.PersonID(*ref), *topK, strat, *timeout, *queries, *batch, route)
		}
	case "station":
		err = runStation(cfg, *connect, uint32(*station), *stations, *storeKind, *dir, *empty)
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "di-cluster:", err)
		os.Exit(1)
	}
}

// runCenter accepts station links, runs one WBF search and shuts down.
// Stations identify themselves by sending their index as the first byte
// sequence of the demo protocol — here simplified: accept order must match
// station start order, so start stations 0..n-1 in sequence.
func runCenter(cfg dimatch.CityConfig, listenAddr string, stationCount int, ref dimatch.PersonID, topK int, strat dimatch.Strategy, timeout time.Duration, queryCount, batch int, routing dimatch.RoutingMode) error {
	city, err := dimatch.GenerateCity(cfg)
	if err != nil {
		return err
	}
	groups := stationGroups(city, stationCount)

	var down, up dimatch.Meter
	ln, err := dimatch.Listen(listenAddr, &down, &up)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("center: listening on %s for %d stations\n", ln.Addr(), stationCount)

	links := make(map[uint32]dimatch.Link, stationCount)
	for i := 0; i < stationCount; i++ {
		link, err := ln.Accept()
		if err != nil {
			return err
		}
		links[uint32(i)] = link
		fmt.Printf("center: station %d connected (%d persons locally)\n", i, len(groups[uint32(i)]))
	}

	c, err := dimatch.NewClusterWithLinks(dimatch.Options{
		Params:   dimatch.Params{Samples: 8, Epsilon: 1, Seed: cfg.Seed, PositionSalted: true},
		MinScore: 0.9,
		TopK:     topK,
	}, links, city.Length(), &down, &up)
	if err != nil {
		return err
	}
	defer c.Shutdown() //nolint:errcheck // demo teardown

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	searchQueries := centerQueries(city, ref, queryCount)
	out, err := c.Search(ctx, searchQueries,
		dimatch.WithStrategy(strat), dimatch.WithTopK(topK), dimatch.WithBatching(batch),
		dimatch.WithRouting(routing))
	if err != nil {
		return err
	}
	fmt.Printf("center: %s top-%d persons similar to %d (%d queries in the batch):\n",
		strat, topK, ref, len(searchQueries))
	for _, r := range out.PerQuery[1] {
		fmt.Printf("  person %-6d weight %.3f (%d stations)\n", r.Person, r.Score(), r.Stations)
	}
	fmt.Printf("center: dissemination %d B / %d msgs, reports %d B / %d msgs, %d batched rounds, elapsed %v\n",
		out.Cost.BytesDown, out.Cost.MessagesDown, out.Cost.BytesUp, out.Cost.MessagesUp,
		out.Cost.Batches, out.Cost.Elapsed)
	fmt.Printf("center: routing %s: %d stations pruned, %d summary refreshes (%d B)\n",
		routing, out.Cost.StationsPruned, out.Cost.SummaryRefreshes,
		out.Cost.SummaryBytesDown+out.Cost.SummaryBytesUp)
	return nil
}

// centerQueries builds the search batch: the reference person's query plus
// up to n-1 further references drawn across the city's categories — the
// multi-tenant load the batched pipeline amortizes into one exchange per
// station.
func centerQueries(city *dimatch.City, ref dimatch.PersonID, n int) []dimatch.Query {
	queries := []dimatch.Query{dimatch.QueryFromPerson(city, 1, ref)}
	id := dimatch.QueryID(2)
	for _, cat := range dimatch.Categories() {
		for _, p := range city.PersonsInCategory(cat) {
			if len(queries) >= n {
				return queries
			}
			if dimatch.PersonID(p) == ref {
				continue
			}
			queries = append(queries, dimatch.QueryFromPerson(city, id, dimatch.PersonID(p)))
			id++
		}
	}
	return queries
}

// runStation serves one station node. With -empty it starts with no local
// data (residents arrive via store recovery and center placement); otherwise
// it regenerates the city and takes its shard. With -store wal the resident
// store is durable: every acked mutation lands in the WAL directory before
// the ack, and a restart from the same directory recovers it.
func runStation(cfg dimatch.CityConfig, connectAddr string, index uint32, stationCount int, storeKind, dir string, empty bool) error {
	var locals map[dimatch.PersonID]dimatch.Pattern
	if !empty {
		city, err := dimatch.GenerateCity(cfg)
		if err != nil {
			return err
		}
		groups := stationGroups(city, stationCount)
		locals = groups[index]
		if len(locals) == 0 {
			return fmt.Errorf("station %d has no local data (only %d shards)", index, stationCount)
		}
	}

	var st dimatch.Store
	switch storeKind {
	case "memory":
	case "wal":
		if dir == "" {
			return fmt.Errorf("station %d: -store wal needs -dir", index)
		}
		var err error
		st, err = dimatch.OpenWALStore(dir, dimatch.WALOptions{})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown store backend %q (memory or wal)", storeKind)
	}

	var up dimatch.Meter
	link, err := dimatch.Dial(connectAddr, &up, nil)
	if err != nil {
		return err
	}
	fmt.Printf("station %d: connected, serving %d local patterns (store %s)\n", index, len(locals), storeKind)
	if st != nil {
		err = dimatch.ServeStoredStation(index, locals, link, st)
	} else {
		err = dimatch.ServeStation(index, locals, link)
	}
	if err != nil {
		return err
	}
	fmt.Printf("station %d: shut down (sent %d B of reports)\n", index, up.Bytes())
	return nil
}

// runChurn is the live-cluster demo: one process, real mutations, searches
// in flight the whole time.
func runChurn(cfg dimatch.CityConfig) error {
	city, err := dimatch.GenerateCity(cfg)
	if err != nil {
		return err
	}
	data := dimatch.StationData(city)

	ref, ok := dimatch.CleanReference(city, dimatch.OfficeWorker)
	if !ok {
		return fmt.Errorf("no clean reference in category %v", dimatch.OfficeWorker)
	}
	relevant := dimatch.RelevantSet(city, ref)
	query := dimatch.QueryFromPerson(city, 1, ref)

	// Hold out the station carrying the most relevant persons' pieces: its
	// absence visibly dents recall, its arrival visibly restores it.
	heldOut, best := uint32(0), -1
	for s, locals := range data {
		n := 0
		for _, p := range relevant {
			if _, ok := locals[p]; ok {
				n++
			}
		}
		if n > best {
			heldOut, best = s, n
		}
	}
	initial := make(map[uint32]map[dimatch.PersonID]dimatch.Pattern, len(data)-1)
	for s, locals := range data {
		if s != heldOut {
			initial[s] = locals
		}
	}

	// TopK 0 returns every qualified person: the demo's precision/recall
	// then reflect the cluster's contents, not a ranking cutoff.
	c, err := dimatch.NewCluster(dimatch.Options{
		Params:   dimatch.Params{Samples: 8, Epsilon: 1, Seed: cfg.Seed, PositionSalted: true},
		MinScore: 0.9,
		Verify:   true,
	}, initial)
	if err != nil {
		return err
	}
	defer c.Shutdown() //nolint:errcheck // demo teardown
	ctx := context.Background()

	report := func(phase string) error {
		out, err := c.Search(ctx, []dimatch.Query{query})
		if err != nil {
			return err
		}
		conf := dimatch.Evaluate(out.Persons(1), relevant)
		fmt.Printf("%-28s stations=%-3d precision=%.3f recall=%.3f (failed=%d)\n",
			phase, c.Stations(), conf.Precision(), conf.Recall(), out.Cost.StationsFailed)
		return nil
	}

	fmt.Printf("churn demo: %d persons, %d stations, station %d held out (%d relevant pieces)\n",
		cfg.Persons, len(data), heldOut, best)
	if err := report("before churn:"); err != nil {
		return err
	}

	// Background searches run across every mutation below.
	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		searches int
		bgErr    error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Search(ctx, []dimatch.Query{query}); err != nil {
				bgErr = err
				return
			}
			searches++
		}
	}()

	// Grow: the held-out station joins the running cluster.
	if err := c.AddStation(ctx, heldOut, data[heldOut]); err != nil {
		return err
	}
	if err := report("after AddStation:"); err != nil {
		return err
	}

	// Ingest: a newcomer cloned from the reference appears at the
	// reference's stations; a search for the reference pattern now also
	// retrieves them.
	newcomer := dimatch.PersonID(uint64(cfg.Persons) + 1_000_000)
	refLocals := dimatch.PersonLocals(city, ref)
	for s, l := range refLocals {
		if err := c.Ingest(ctx, s, map[dimatch.PersonID]dimatch.Pattern{newcomer: l.Clone()}); err != nil {
			return err
		}
	}
	out, err := c.Search(ctx, []dimatch.Query{query})
	if err != nil {
		return err
	}
	got := false
	for _, p := range out.Persons(1) {
		got = got || p == newcomer
	}
	fmt.Printf("%-28s newcomer retrieved=%v\n", "after Ingest:", got)

	// Evict the newcomer everywhere; they must disappear.
	for s := range refLocals {
		if err := c.Evict(ctx, s, []dimatch.PersonID{newcomer}); err != nil {
			return err
		}
	}
	out, err = c.Search(ctx, []dimatch.Query{query})
	if err != nil {
		return err
	}
	got = false
	for _, p := range out.Persons(1) {
		got = got || p == newcomer
	}
	fmt.Printf("%-28s newcomer retrieved=%v\n", "after Evict:", got)

	// Shrink: the station leaves again.
	if err := c.RemoveStation(ctx, heldOut); err != nil {
		return err
	}
	if err := report("after RemoveStation:"); err != nil {
		return err
	}

	close(stop)
	wg.Wait()
	if bgErr != nil {
		return fmt.Errorf("background search: %w", bgErr)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("ran %d background searches during churn; final stats: %d residents, %d B across %d stations (epoch %d)\n",
		searches, st.TotalResidents(), st.TotalStorageBytes(), len(st.Stations), st.Epoch)
	return nil
}

// runReplicatedChurn is the replicated-placement chaos demo: an empty
// cluster, every person's global pattern placed at the given replication
// factor, then a station killed and another removed while background
// searches run. It returns an error — and the process exits non-zero — if
// recall ever drops below the healthy cluster's value, so CI can use it as
// the replication smoke test.
func runReplicatedChurn(cfg dimatch.CityConfig, replicas int) error {
	city, err := dimatch.GenerateCity(cfg)
	if err != nil {
		return err
	}
	stations := make([]uint32, 0, len(city.StationIDs()))
	for _, s := range city.StationIDs() {
		stations = append(stations, uint32(s))
	}

	c, err := dimatch.NewEmptyCluster(dimatch.Options{
		Params:   dimatch.Params{Samples: 8, Epsilon: 1, Seed: cfg.Seed, PositionSalted: true},
		MinScore: 0.9,
	}, stations, city.Length())
	if err != nil {
		return err
	}
	defer c.Shutdown() //nolint:errcheck // demo teardown
	ctx := context.Background()

	globals := dimatch.PersonGlobals(city)
	if err := c.Place(ctx, globals, dimatch.WithReplication(replicas)); err != nil {
		return err
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("replication demo: %d persons placed at R=%d across %d stations (%d replicas resident)\n",
		c.Placed(), replicas, len(stations), st.TotalResidents())

	ref, ok := dimatch.CleanReference(city, dimatch.OfficeWorker)
	if !ok {
		return fmt.Errorf("no clean reference in category %v", dimatch.OfficeWorker)
	}
	relevant := dimatch.RelevantSet(city, ref)
	query := dimatch.QueryFromPerson(city, 1, ref)

	recallAt := func(phase string) (float64, error) {
		out, err := c.Search(ctx, []dimatch.Query{query})
		if err != nil {
			return 0, err
		}
		conf := dimatch.Evaluate(out.Persons(1), relevant)
		fmt.Printf("%-24s stations=%-3d precision=%.3f recall=%.3f (failed=%d)\n",
			phase, c.Stations(), conf.Precision(), conf.Recall(), out.Cost.StationsFailed)
		return conf.Recall(), nil
	}
	healthy, err := recallAt("healthy:")
	if err != nil {
		return err
	}

	// Background searches run across every failure below.
	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		searches int
		bgErr    error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Search(ctx, []dimatch.Query{query}); err != nil {
				bgErr = err
				return
			}
			searches++
		}
	}()

	assertHeld := func(phase string, recall float64) error {
		if recall < healthy {
			return fmt.Errorf("%s recall %.3f dropped below healthy %.3f — replicas did not cover the failure",
				phase, recall, healthy)
		}
		return nil
	}

	// Kill one station mid-run: its replicas cover the searches in flight,
	// and the kill re-replicates its placements onto the survivors.
	if err := c.KillStation(stations[0]); err != nil {
		return err
	}
	recall, err := recallAt("after KillStation:")
	if err != nil {
		return err
	}
	if err := assertHeld("after KillStation", recall); err != nil {
		return err
	}

	// Remove another station deliberately: same guarantee through the
	// planned-departure path.
	if err := c.RemoveStation(ctx, stations[1]); err != nil {
		return err
	}
	recall, err = recallAt("after RemoveStation:")
	if err != nil {
		return err
	}
	if err := assertHeld("after RemoveStation", recall); err != nil {
		return err
	}

	close(stop)
	wg.Wait()
	if bgErr != nil {
		return fmt.Errorf("background search: %w", bgErr)
	}

	rep, err := c.Rebalance(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("ran %d background searches through the failures; reconcile check: %d placed, %d to copy, %d lost\n",
		searches, rep.Placed, rep.Copied, rep.Lost)
	if rep.Copied != 0 || rep.Lost != 0 {
		return fmt.Errorf("reconcile check found residual work (%d to copy, %d lost) — self-healing incomplete", rep.Copied, rep.Lost)
	}
	fmt.Printf("replica guarantee held: recall never dropped below the healthy value %.3f\n", healthy)
	return nil
}

// runRecoveryChurn is the kill-9 station-recovery chaos smoke: a two-station
// TCP cluster where station 1 runs a WAL-backed resident store in a real
// subprocess. Every person is placed at R=2, the durable station is killed
// with SIGKILL (no shutdown handshake, no store flush), removed, and then
// relaunched from the same WAL directory. The relaunch must recover its
// residents locally — the rejoin may only ship the delta placed while it was
// down, never a full re-replication — and recall must match the healthy
// cluster throughout. Any violation exits non-zero, which makes this CI's
// durability chaos smoke test.
func runRecoveryChurn(cfg dimatch.CityConfig, dir string) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "di-cluster-recover-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	city, err := dimatch.GenerateCity(cfg)
	if err != nil {
		return err
	}

	var down, up dimatch.Meter
	ln, err := dimatch.Listen("127.0.0.1:0", &down, &up)
	if err != nil {
		return err
	}
	defer ln.Close()

	const walStation = 1
	spawn := func(id uint32, walDir string) (*exec.Cmd, dimatch.Link, error) {
		args := []string{"-role", "station", "-connect", ln.Addr(), "-station", fmt.Sprint(id), "-empty"}
		if walDir != "" {
			args = append(args, "-store", "wal", "-dir", walDir)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, nil, err
		}
		link, err := ln.Accept()
		if err != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, nil, err
		}
		return cmd, link, nil
	}
	cmds := make(map[uint32]*exec.Cmd, 2)
	defer func() {
		for _, cmd := range cmds {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()

	links := make(map[uint32]dimatch.Link, 2)
	for id := uint32(0); id < 2; id++ {
		walDir := ""
		if id == walStation {
			walDir = dir
		}
		cmd, link, err := spawn(id, walDir)
		if err != nil {
			return err
		}
		cmds[id], links[id] = cmd, link
	}

	c, err := dimatch.NewClusterWithLinks(dimatch.Options{
		Params:   dimatch.Params{Samples: 8, Epsilon: 1, Seed: cfg.Seed, PositionSalted: true},
		MinScore: 0.9,
	}, links, city.Length(), &down, &up)
	if err != nil {
		return err
	}
	defer c.Shutdown() //nolint:errcheck // demo teardown
	ctx := context.Background()

	globals := dimatch.PersonGlobals(city)
	if err := c.Place(ctx, globals, dimatch.WithReplication(2)); err != nil {
		return err
	}
	placeBytes := down.Bytes()

	residentsAt := func(id uint32) (int, error) {
		st, err := c.Stats(ctx)
		if err != nil {
			return 0, err
		}
		for _, s := range st.Stations {
			if s.Station == id {
				return s.Residents, nil
			}
		}
		return 0, fmt.Errorf("station %d missing from stats", id)
	}
	ref, ok := dimatch.CleanReference(city, dimatch.OfficeWorker)
	if !ok {
		return fmt.Errorf("no clean reference in category %v", dimatch.OfficeWorker)
	}
	relevant := dimatch.RelevantSet(city, ref)
	query := dimatch.QueryFromPerson(city, 1, ref)
	recallAt := func(phase string) (float64, error) {
		out, err := c.Search(ctx, []dimatch.Query{query})
		if err != nil {
			return 0, err
		}
		conf := dimatch.Evaluate(out.Persons(1), relevant)
		fmt.Printf("%-24s stations=%-3d precision=%.3f recall=%.3f (failed=%d)\n",
			phase, c.Stations(), conf.Precision(), conf.Recall(), out.Cost.StationsFailed)
		return conf.Recall(), nil
	}

	preKill, err := residentsAt(walStation)
	if err != nil {
		return err
	}
	fmt.Printf("recovery demo: %d persons placed at R=2, station %d holds %d residents in WAL dir %s (%d B disseminated)\n",
		c.Placed(), walStation, preKill, dir, placeBytes)
	healthy, err := recallAt("healthy:")
	if err != nil {
		return err
	}

	// SIGKILL: the station process dies mid-flight with no chance to flush.
	// Every acked batch must already be on disk (the WAL fsyncs per batch
	// before the ack), so this is the crash the store exists to survive.
	if err := cmds[walStation].Process.Kill(); err != nil {
		return err
	}
	_ = cmds[walStation].Wait()
	delete(cmds, walStation)
	if err := c.KillStation(walStation); err != nil {
		return err
	}
	recall, err := recallAt("after kill -9:")
	if err != nil {
		return err
	}
	if recall < healthy {
		return fmt.Errorf("recall %.3f dropped below healthy %.3f after kill — replicas did not cover the crash", recall, healthy)
	}
	if err := c.RemoveStation(ctx, walStation); err != nil {
		return err
	}

	// Late arrivals while the station is down: the only data a rejoin is
	// allowed to fetch over the wire.
	late := make(map[dimatch.PersonID]dimatch.Pattern, 16)
	for i := 0; i < 16; i++ {
		p := make(dimatch.Pattern, city.Length())
		p[0] = int64(i + 1)
		late[dimatch.PersonID(uint64(cfg.Persons)+2_000_000+uint64(i))] = p
	}
	if err := c.Place(ctx, late, dimatch.WithReplication(2)); err != nil {
		return err
	}

	// Relaunch from the same directory: recovery, not re-replication.
	rejoinStart := down.Bytes()
	cmd, link, err := spawn(walStation, dir)
	if err != nil {
		return err
	}
	cmds[walStation] = cmd
	if err := c.AddStationLink(ctx, walStation, link); err != nil {
		return err
	}
	rejoinBytes := down.Bytes() - rejoinStart

	post, err := residentsAt(walStation)
	if err != nil {
		return err
	}
	fmt.Printf("after restart from WAL: station %d holds %d residents (was %d before the kill), rejoin disseminated %d B vs %d B initial placement\n",
		walStation, post, preKill, rejoinBytes, placeBytes)
	if post < preKill {
		return fmt.Errorf("restarted station recovered %d residents, had %d before the kill — WAL recovery lost data", post, preKill)
	}
	if rejoinBytes*4 >= placeBytes {
		return fmt.Errorf("rejoin disseminated %d B against %d B initial placement — that is re-replication, not delta top-up", rejoinBytes, placeBytes)
	}
	recall, err = recallAt("after restart:")
	if err != nil {
		return err
	}
	if recall < healthy {
		return fmt.Errorf("recall %.3f dropped below healthy %.3f after restart — recovery incomplete", recall, healthy)
	}

	rep, err := c.Rebalance(ctx)
	if err != nil {
		return err
	}
	if rep.Copied != 0 || rep.Lost != 0 {
		return fmt.Errorf("reconcile check found residual work (%d to copy, %d lost) — rejoin heal incomplete", rep.Copied, rep.Lost)
	}
	fmt.Printf("recovery guarantee held: kill -9 lost nothing, rejoin shipped the delta only (reconcile: %d placed, 0 to copy, 0 lost)\n", rep.Placed)
	return nil
}

// runHierarchyChurn is the hierarchical-routing chaos smoke: a two-tier
// deployment where region coordinators (dimatch.ServeRegion) front disjoint
// subsets of the stations over real TCP links, with the center talking only
// to the regions. Every person's global pattern is placed at R>=2 — the
// root's rendezvous hashing spreads the replicas across regions — and
// tree-routed searches are checked against full fan-out for exact result
// equality before and after one region coordinator is killed mid-search,
// taking its whole subtree with it. Cross-region replicas must hold recall
// at the healthy value; any drop or divergence returns an error and the
// process exits non-zero, which makes this CI's hierarchy chaos smoke test.
func runHierarchyChurn(cfg dimatch.CityConfig, replicas, fanout int) error {
	if replicas < 2 {
		replicas = 2 // a kill below R=2 is allowed to lose data; the smoke needs the guarantee
	}
	city, err := dimatch.GenerateCity(cfg)
	if err != nil {
		return err
	}
	stations := make([]uint32, 0, len(city.StationIDs()))
	for _, s := range city.StationIDs() {
		stations = append(stations, uint32(s))
	}

	const regionCount = 3
	opts := dimatch.Options{
		Params:     dimatch.Params{Samples: 8, Epsilon: 1, Seed: cfg.Seed, PositionSalted: true},
		MinScore:   0.9,
		TreeFanout: fanout,
	}
	var down, up dimatch.Meter
	ln, err := dimatch.Listen("127.0.0.1:0", &down, &up)
	if err != nil {
		return err
	}
	defer ln.Close()

	// Stand the regions up one at a time: each is an in-process sub-cluster
	// of empty stations fronted by a ServeRegion loop on a dialed link, and
	// dial order matches accept order so every link is attributable.
	links := make(map[uint32]dimatch.Link, regionCount)
	subs := make(map[uint32]*dimatch.Cluster, regionCount)
	defer func() {
		for _, sub := range subs {
			_ = sub.Shutdown()
		}
	}()
	regionIDs := make([]uint32, 0, regionCount)
	for r := 0; r < regionCount; r++ {
		var members []uint32
		for _, s := range stations {
			if int(s)%regionCount == r {
				members = append(members, s)
			}
		}
		sub, err := dimatch.NewEmptyCluster(opts, members, city.Length())
		if err != nil {
			return err
		}
		regionID := uint32(1000 + r)
		subs[regionID] = sub
		regionIDs = append(regionIDs, regionID)
		link, err := dimatch.Dial(ln.Addr(), nil, nil)
		if err != nil {
			return err
		}
		go func(id uint32, sub *dimatch.Cluster, link dimatch.Link) {
			// Returns when the center closes or kills the link; the smoke
			// owns the sub-cluster and shuts it down on exit.
			_ = dimatch.ServeRegion(id, sub, link)
		}(regionID, sub, link)
		accepted, err := ln.Accept()
		if err != nil {
			return err
		}
		links[regionID] = accepted
		fmt.Printf("region %d: serving %d stations\n", regionID, len(members))
	}

	root, err := dimatch.NewClusterWithLinks(opts, links, city.Length(), &down, &up)
	if err != nil {
		return err
	}
	defer root.Shutdown() //nolint:errcheck // demo teardown
	ctx := context.Background()

	globals := dimatch.PersonGlobals(city)
	if err := root.Place(ctx, globals, dimatch.WithReplication(replicas)); err != nil {
		return err
	}
	fmt.Printf("hierarchy demo: %d persons placed at R=%d across %d regions (tree fanout %d)\n",
		root.Placed(), replicas, regionCount, fanout)

	ref, ok := dimatch.CleanReference(city, dimatch.OfficeWorker)
	if !ok {
		return fmt.Errorf("no clean reference in category %v", dimatch.OfficeWorker)
	}
	relevant := dimatch.RelevantSet(city, ref)
	query := dimatch.QueryFromPerson(city, 1, ref)

	// Every checkpoint runs the search twice — tree-routed through the
	// regions, then classic full fan-out — and requires the identical ranked
	// answer: the routed plan may only change cost, never results.
	recallAt := func(phase string) (float64, error) {
		routed, err := root.Search(ctx, []dimatch.Query{query}, dimatch.WithRouting(dimatch.RoutingTree))
		if err != nil {
			return 0, err
		}
		full, err := root.Search(ctx, []dimatch.Query{query}, dimatch.WithRouting(dimatch.RoutingFull))
		if err != nil {
			return 0, err
		}
		rp, fp := routed.Persons(1), full.Persons(1)
		if len(rp) != len(fp) {
			return 0, fmt.Errorf("%s tree-routed search returned %d persons, full fan-out %d — routing changed results", phase, len(rp), len(fp))
		}
		for i := range rp {
			if rp[i] != fp[i] {
				return 0, fmt.Errorf("%s tree-routed result %d is person %d, full fan-out has %d — routing changed results", phase, i, rp[i], fp[i])
			}
		}
		conf := dimatch.Evaluate(rp, relevant)
		fmt.Printf("%-24s regions=%-2d precision=%.3f recall=%.3f (tier hops=%d, probes=%d, failed=%d)\n",
			phase, root.Stations(), conf.Precision(), conf.Recall(),
			routed.Cost.TierHops, routed.Cost.SubtreeProbes, routed.Cost.StationsFailed)
		return conf.Recall(), nil
	}
	healthy, err := recallAt("healthy:")
	if err != nil {
		return err
	}

	// Background tree-routed searches run across the kill below.
	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		searches int
		bgErr    error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := root.Search(ctx, []dimatch.Query{query}, dimatch.WithRouting(dimatch.RoutingTree)); err != nil {
				bgErr = err
				return
			}
			searches++
		}
	}()

	// Kill one region coordinator mid-search: its whole subtree goes with
	// it, and the root re-replicates the lost placements from the survivors.
	if err := root.KillStation(regionIDs[1]); err != nil {
		return err
	}
	recall, err := recallAt("after region kill:")
	if err != nil {
		return err
	}
	if recall < healthy {
		return fmt.Errorf("recall %.3f dropped below healthy %.3f after the region kill — cross-region replicas did not cover the subtree", recall, healthy)
	}

	close(stop)
	wg.Wait()
	if bgErr != nil {
		return fmt.Errorf("background search: %w", bgErr)
	}

	rep, err := root.Rebalance(ctx)
	if err != nil {
		return err
	}
	if rep.Copied != 0 || rep.Lost != 0 {
		return fmt.Errorf("reconcile check found residual work (%d to copy, %d lost) — region heal incomplete", rep.Copied, rep.Lost)
	}
	fmt.Printf("ran %d background searches through the region kill; hierarchy guarantee held: recall never dropped below %.3f and routed results matched full fan-out throughout\n",
		searches, healthy)
	return nil
}

// stationGroups folds the synthetic city's base stations onto the given
// number of node processes (process i serves city stations s with
// s % stationCount == i), merging each person's locals per process.
func stationGroups(city *dimatch.City, stationCount int) map[uint32]map[dimatch.PersonID]dimatch.Pattern {
	data := dimatch.StationData(city)
	out := make(map[uint32]map[dimatch.PersonID]dimatch.Pattern, stationCount)
	for s, locals := range data {
		g := s % uint32(stationCount)
		dst := out[g]
		if dst == nil {
			dst = make(map[dimatch.PersonID]dimatch.Pattern)
			out[g] = dst
		}
		for p, l := range locals {
			if existing, ok := dst[p]; ok {
				merged := existing.Clone()
				for i, v := range l {
					merged[i] += v
				}
				dst[p] = merged
				continue
			}
			dst[p] = l
		}
	}
	return out
}
