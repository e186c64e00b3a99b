// Package dimatch is a from-scratch Go implementation of DI-matching, the
// Weighted-Bloom-Filter framework for Incomplete Pattern Matching in
// distributed mobile environments from
//
//	Liu, Kang, Chen, Ni. "Distributed Incomplete Pattern Matching via a
//	Novel Weighted Bloom Filter." ICDCS 2012.
//
// # The problem
//
// A person's communication pattern (calls, durations, partners per time
// interval) is scattered over the base stations they pass. Given a query
// pattern and a tolerance ε, Incomplete Pattern Matching asks for the top-K
// persons whose never-materialized global pattern — the sum of their
// per-station local patterns — matches the query at every interval.
// Shipping all data to a center answers exactly but drowns the backhaul;
// matching locally and unioning answers cheaply but wrongly.
//
// # The approach
//
// The pipeline is place → route → probe → verify:
//
//   - Place: patterns live where the data (or the rendezvous hash) puts
//     them. Station-addressed ingest pins a pattern to the station that
//     observed it; Place copies it to the R stations that win the HRW hash
//     and keeps that invariant standing through churn.
//   - Route: the coordinator encodes the query's local-pattern
//     combinations into a Weighted Bloom Filter — accumulated (prefix-sum)
//     form, b deterministic sample points, an exact integer weight attached
//     to every set bit — and, before fanning out, probes its cached
//     per-station summaries to skip stations that provably hold no resident
//     inside any combination's ε band. Query exchanges go only to stations
//     that might answer.
//   - Probe: each visited station probes its residents against the filter
//     (a whole batch of queries in one walk) and returns only
//     (person, weight) pairs; the center sums weights per person — disjoint
//     combination weights add, a full partition sums to exactly 1, and sums
//     above 1 expose aggregates that cannot equal the query — then ranks.
//   - Verify: optionally, the center fetches the ranked candidates' local
//     patterns from the full membership, materializes their globals and
//     keeps only exact Eq. 2 matches.
//
// # Using the library
//
//	data := ...  // map[stationID]map[PersonID]Pattern
//	c, err := dimatch.NewCluster(dimatch.Options{TopK: 10}, data)
//	defer c.Shutdown()
//	out, err := c.Search(ctx, []dimatch.Query{{ID: 1, Locals: locals}})
//	for _, r := range out.PerQuery[1] { fmt.Println(r.Person, r.Score()) }
//
// Search honors its context — a cancellation or deadline abandons the
// in-flight fan-out round and returns an error wrapping ErrCancelled
// without disturbing the station links — and is safe to call from any
// number of goroutines over one cluster: every station link multiplexes
// concurrent searches by wire request ID. Per-call options override the
// cluster's defaults for a single search:
//
//	out, err := c.Search(ctx, queries,
//		dimatch.WithStrategy(dimatch.StrategyBF),
//		dimatch.WithTopK(5),
//		dimatch.WithVerify(true))
//
// # Routed searches
//
// Summary routing is on by default: every station can answer a
// summary pull with a compact Bloom digest of its residents' accumulated
// cells, the coordinator caches the digests (ingest delta-updates them,
// evict and membership changes invalidate them), and each WBF search visits
// only the stations whose digest admits a possible match. Pruning is
// strictly conservative — stations without a usable digest are always
// visited and an all-pruned plan falls back to full fan-out — so results
// equal full fan-out and only the wasted exchanges differ:
//
//	out, err := c.Search(ctx, queries)                                  // routed (default)
//	out, err = c.Search(ctx, queries, dimatch.WithRouting(dimatch.RoutingFull)) // classic fan-out
//	fmt.Println(out.Cost.StationsPruned, out.Cost.SummaryRefreshes)
//
// The repository benchmark's point_routed workload (benchmark/) reports the
// saving on a selective workload as msgs_per_query — at 64 stations a
// single-target search exchanges 4 messages, a query and a reply for each
// of the target's 2 replica stations, where full fan-out exchanges 128 —
// and docs/OPERATIONS.md covers when routing pays and how summaries are
// sized.
//
// # Hierarchical routing
//
// Past a few hundred stations the flat plan itself becomes the cost: the
// coordinator probes and stores one digest per station. ServeRegion moves
// whole subtrees out of process — a region coordinator is a full cluster
// over its member stations that serves its parent like one big station,
// answering delegated search rounds with raw partials the root
// merges, ranks and verifies globally:
//
//	sub, err := dimatch.NewEmptyCluster(opts, memberIDs, length)
//	go dimatch.ServeRegion(regionID, sub, linkToParent)   // region process
//	root, err := dimatch.NewClusterWithLinks(opts, links, length, nil, nil)
//	out, err := root.Search(ctx, queries)
//	fmt.Println(out.Cost.TierHops, out.Cost.SubtreeProbes)
//
// Every tier prunes conservatively, so routed results stay byte-identical
// to a flat full fan-out. TestTwoTierPlanningSublinearAt1024 in
// internal/cluster pins the effect at 1024 stations behind 32 regions (at
// most 0.25·N digest probes per query across both tiers, and every
// coordinator holding less routing state than the flat one) and
// docs/ROUTING.md carries the design and the soundness argument.
//
// # Adaptive digest parameters
//
// Routed searches feed a traffic profiler as a side effect: which
// positions the probes sample, how wide the bands are, and which lookups
// the digests prove nobody can serve. RederiveParams solves a Daisy-style
// allocation over that profile — per-position bit budgets, hash counts
// and quanta under each station's unchanged memory budget — and rolls the
// plan out to every plain station as one epoch-atomic parameter update;
// searches stamp the epoch they ran under into CostReport.ParamEpoch and
// ResetParams reverts the fleet to static the same way:
//
//	roll, err := c.RederiveParams(ctx)
//	fmt.Println(len(roll.Applied), "stations adaptive at epoch", roll.Epoch)
//	epoch, plan := c.ParamState()
//
// Adaptation redistributes admission bits, never match behavior: results
// stay byte-identical to a never-adapted cluster, recall stays 1, and
// every failure path — a plan a station cannot honor, a failed exchange, a
// solver that cannot beat static — degrades to the static table.
// TestStatsAdaptiveBeatsStatic in internal/adapt pins the gain — at equal
// memory, strictly fewer false admissions of empty bands than the static
// digest at every traffic skew where static makes any — and
// docs/OPERATIONS.md covers when to rederive and how to size
// Options.AdaptWindow.
//
// # Batched searches
//
// A WBF search ships its whole query set in one wire exchange per station
// by default; each station answers the round with a single walk over its
// resident store, parallelized across a bounded worker pool.
// WithBatching(n) bounds the round per call: 0 packs everything into one
// round, n >= 1 splits into rounds of n queries. Batching changes traffic
// and latency, not the ranking of true matches (auto-sized filters can shift
// which rare Bloom false positives slip through, as any resizing does).
//
// # Live clusters
//
// A running cluster is mutable while searches are in flight. Ingest and
// Evict change a station's resident patterns — the mutation travels the
// station's own request/reply loop, so it applies between exchanges and
// never races a search:
//
//	err = c.Ingest(ctx, stationID, map[dimatch.PersonID]dimatch.Pattern{
//		4711: {0, 3, 1}, // freshly observed call data
//	})
//	err = c.Evict(ctx, stationID, []dimatch.PersonID{4711})
//
// AddStation (in-process), AddStationLink (remote, e.g. an accepted TCP
// connection) and RemoveStation grow and shrink the membership, which is
// kept in an epoch-versioned snapshot: a search pins the epoch current at
// its start and fans out over exactly that station set, so a concurrent
// membership change never disturbs it — an overlapping removal is counted
// in CostReport.StationsFailed, never surfaced as an error. Stats fetches
// every station's resident count and storage bytes over the wire, cached
// per epoch.
//
// # Replicated placement
//
// Place hands pattern locality to the cluster: each person's pattern is
// copied to the stations that win a rendezvous (HRW) hash of (person,
// station) — WithReplication many, default 2 — with no station IDs in the
// call:
//
//	c, err := dimatch.NewEmptyCluster(opts, []uint32{1, 2, 3, 4}, length)
//	err = c.Place(ctx, patterns, dimatch.WithReplication(2))
//
// Searches dedupe a placed person's replica reports (the highest score
// wins, so duplicate copies never trip the over-match deletion), a replica
// lost mid-search is covered by the survivors, and every membership change
// triggers a reconciliation pass that re-replicates under-replicated
// patterns from their surviving copies and rebalances the ones whose
// rendezvous winners changed. Rebalance runs a pass on demand and reports
// it; Unplace releases persons back to station-addressed management.
// TestEverySingleKillKeepsResultsAtR2 in internal/cluster pins the
// resulting guarantee: at replication 2, killing any single station leaves
// the result set equal to the healthy cluster's.
//
// A deterministic city-scale synthetic CDR generator (GenerateCity) stands
// in for the paper's proprietary dataset, and StrategyNaive / StrategyBF
// reproduce the paper's two baselines for comparison. See README.md for
// the architecture sketch and strategy comparison, ARCHITECTURE.md for the
// full layer-by-layer walkthrough, docs/WIRE.md for the frame-level
// protocol specification, and docs/OPERATIONS.md for the deployment and
// tuning guide (choosing R and the routing mode, sizing summaries, reading
// CostReport and Stats, the epoch/reconciliation lifecycle).
package dimatch
