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
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
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
		routing   = flag.String("routing", "summary", "center: fan-out routing mode: summary (prune stations via a scan of the cached summaries) or full (classic every-station fan-out)")
		timeout   = flag.Duration("timeout", time.Minute, "center: per-search deadline (0 for none)")
		storeKind = flag.String("store", "memory", "station: resident store backend: memory or wal")
		dir       = flag.String("dir", "", "station: WAL store directory (required with -store wal)")
		empty     = flag.Bool("empty", false, "station: start with no local data (residents arrive via recovery and placement)")
	)
	flag.Parse()

	cfg := dimatch.DefaultCityConfig()
	cfg.Persons = *persons
	cfg.Seed = *seed

	var err error
	switch *role {
	case "center":
		var strat dimatch.Strategy
		strat, err = dimatch.ParseStrategy(*strategy)
		var route dimatch.RoutingMode
		if err == nil {
			route, err = dimatch.ParseRoutingMode(*routing)
		}
		if err == nil {
			err = runCenter(cfg, *listen, *stations, dimatch.PersonID(*ref), *topK, strat, *timeout, *queries, route)
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
func runCenter(cfg dimatch.CityConfig, listenAddr string, stationCount int, ref dimatch.PersonID, topK int, strat dimatch.Strategy, timeout time.Duration, queryCount int, routing dimatch.RoutingMode) error {
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

	members := make([]dimatch.Member, stationCount)
	for i := range members {
		link, err := ln.Accept()
		if err != nil {
			return err
		}
		members[i] = dimatch.Member{ID: uint32(i), Link: link}
		fmt.Printf("center: station %d connected (%d persons locally)\n", i, len(groups[uint32(i)]))
	}

	c, err := dimatch.NewCluster(dimatch.Options{
		Params:   dimatch.Params{Samples: 8, Epsilon: 1, Seed: cfg.Seed, PositionSalted: true},
		MinScore: 0.9,
		TopK:     topK,
	}, city.Length(), members...)
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
		dimatch.WithStrategy(strat), dimatch.WithRouting(routing))
	if err != nil {
		return err
	}
	fmt.Printf("center: %s top-%d persons similar to %d (%d queries in the batch):\n",
		strat, topK, ref, len(searchQueries))
	for _, r := range out.PerQuery[1] {
		fmt.Printf("  person %-6d weight %.3f (%d stations)\n", r.Person, r.Score(), r.Stations)
	}
	fmt.Printf("center: dissemination %d B / %d msgs, reports %d B / %d msgs, elapsed %v\n",
		out.Cost.BytesDown, out.Cost.MessagesDown, out.Cost.BytesUp, out.Cost.MessagesUp, out.Cost.Elapsed)
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
	if err := dimatch.ServeStoredStation(index, locals, link, st); err != nil {
		return err
	}
	fmt.Printf("station %d: shut down (sent %d B of reports)\n", index, up.Bytes())
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
