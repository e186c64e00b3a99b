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
//     observed it; Place copies it to an R-station replica group (the HRW
//     winner and its successors by station ID) and keeps that invariant
//     standing through churn.
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
//	c, err := dimatch.NewCluster(dimatch.Options{TopK: 10}, length,
//		dimatch.Member{ID: 0, Patterns: locals0},                  // in-process
//		dimatch.Member{ID: 1, Patterns: locals1, Store: walStore}, // durable
//		dimatch.Member{ID: 2, Link: tcpLink})                      // remote
//	defer c.Shutdown()
//	out, err := c.Search(ctx, []dimatch.Query{{ID: 1, Locals: locals}})
//	for _, r := range out.PerQuery[1] { fmt.Println(r.Person, r.Score()) }
//
// Every cluster is built by NewCluster and grown by AddStation, both over
// Member specs: an ID plus either an in-process station (seeded with
// Patterns, durable through Store when set) or a remote station already
// serving on the other end of Link. Members(data) turns station-major data
// into in-process members.
//
// Search honors its context — a cancellation or deadline abandons the
// in-flight fan-out round and returns an error wrapping ErrCancelled
// without disturbing the station links — and is safe to call from any
// number of goroutines over one cluster: every station link multiplexes
// concurrent searches by wire request ID. Per-call options choose one
// search's strategy, verification and routing; top-K and the score
// threshold are cluster Options:
//
//	out, err := c.Search(ctx, queries,
//		dimatch.WithStrategy(dimatch.StrategyWBF),
//		dimatch.WithVerify(true))
//
// WBF and BF match each station's piece of a person against the
// combinations of the query's locals, the naive strategy the summed global.
// Queries take non-negative locals while stored cells may be any int32, so
// only StrategyNaive is exact for a person with a negative piece.
//
// # Routed searches
//
// Summary routing is on by default: every station can answer a
// summary pull with a compact Bloom digest of its residents' accumulated
// cells, the coordinator caches the digests (an ingest into an empty
// station hands its digest over, ingests delta-update one a search has
// read, evict and membership changes invalidate it), and each WBF search visits
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
// single-target search exchanges 2 messages, a query and a reply for one
// of the target's 2 replica stations, where full fan-out exchanges 128 —
// and docs/OPERATIONS.md covers when routing pays and how summaries are
// sized.
//
// # Batched searches
//
// A WBF search ships its whole query set in one wire exchange per station;
// each station answers it with a single walk over its resident store,
// parallelized across a bounded worker pool. One frame carries at most
// 4 096 queries: a larger WBF search, or any search holding one query ID
// twice, is refused with ErrBadQueries before any exchange. Separate Search
// calls send fewer queries per exchange and rank true matches the same
// (auto-sized filters can shift which rare Bloom false positives slip
// through, as any resizing does).
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
// AddStation (an in-process Member, or a remote one over an accepted TCP
// link) and RemoveStation grow and shrink the membership, which is
// kept in an epoch-versioned snapshot: a search pins the epoch current at
// its start and fans out over exactly that station set, so a concurrent
// membership change never disturbs it — an overlapping removal is counted
// in CostReport.StationsFailed, never surfaced as an error. Stats reports
// every station's resident count and storage bytes as the station last
// reported them: a station answers every ingest and evict with its
// figures, so Stats sends no frame.
//
// # Replicated placement
//
// Place hands pattern locality to the cluster: each person's pattern is
// copied to a chained replica group — the station that wins a rendezvous
// (HRW) hash of (person, station) and its successors by station ID,
// WithReplication many, default 2 — with no station IDs in the call:
//
//	c, err := dimatch.NewCluster(opts, length,
//		dimatch.Member{ID: 1}, dimatch.Member{ID: 2}, dimatch.Member{ID: 3})
//	err = c.Place(ctx, patterns, dimatch.WithReplication(2))
//
// Searches dedupe a placed person's replica reports (the highest score
// wins, so duplicate copies never trip the over-match deletion), a routed
// search visits one replica per group and a replica lost mid-search is
// covered by the others, and every membership change triggers a
// reconciliation pass that re-replicates under-replicated patterns from
// their surviving current copies and rebalances the ones whose replica
// groups changed; a member whose link is lost is left out, and the next pass
// heals around it. Rebalance runs a pass on demand and reports
// it; Unplace releases persons back to station-addressed management.
// TestEverySingleKillKeepsResultsAtR2 (internal/cluster's replication tests)
// pins the resulting guarantee: at replication 2, killing any single
// station leaves the result set equal to the healthy cluster's.
//
// # Code layout
//
// The package is the paper's system: one data center N0 over l base
// stations, in-process ones served by goroutines (the paper used one thread
// per station) over metered links, so a search measures real serialized
// traffic. The center does three things to a station — disseminate a
// filter, collect reports, pull raw local patterns — and each exists once:
// every round trip runs through one exchange (exchange.go), which hands
// each reply to its caller as it lands, pulls are a KindDump, and every
// ingest and evict is one mutate (membership.go).
// The rest: cluster.go (the type, its construction), membership.go
// (lifecycle, the one join path), stats.go, search.go, wbf.go (the
// DI-matching pipeline), route.go (the one pruning pass), baselines.go (BF,
// naive), oracle.go, stream.go (streaming ingest in front of Place) and
// station.go (the station's serve loop). The tests that need only the
// exported API are black-box tests in internal/cluster.
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
