package dimatch

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/wire"
)

// wbfSearch is one WBF search's state across its rounds: the shared
// aggregation, the outcome its exchanges are billed to, and what they saw.
type wbfSearch struct {
	cfg         searchConfig
	queries     []Query
	agg         *core.Aggregator
	out         *Outcome
	reportBytes uint64
	// plan is the routing step's answer, visited every member asked so far
	// (the plan's, then the siblings standing in for failed ones).
	plan    routePlan
	visited map[uint32]bool
	// ids and filter are the search's query IDs and combined filter, built
	// once and kept so a tail round or a sibling re-sends the same frame.
	ids    []QueryID
	filter *core.Filter
	// failed holds every member that failed an exchange of the search — the
	// prefix round, the tail round or verification — so a member lost in two
	// of them counts once.
	failed map[uint32]bool
	// lo is the smallest person any report carried, once seen is set.
	lo   PersonID
	seen bool
	// reply is every station reply's decode destination in turn: its reports
	// are folded into agg before the next reply is decoded.
	reply wire.BatchReply
}

// note records one reported person for the prefix bound's lo.
func (s *wbfSearch) note(p PersonID) {
	if !s.seen || p < s.lo {
		s.lo, s.seen = p, true
	}
}

// rank finalizes every query from the aggregation so far.
func (s *wbfSearch) rank(queries []Query) {
	for _, q := range queries {
		s.out.PerQuery[q.ID] = rankWBF(s.cfg, s.agg, q.ID)
	}
}

// filledAtTop reports whether a ranked answer holds k results scoring
// exactly their denominator D. TopK deletes sums above D and ranks by
// (numerator desc, person asc), so the k-th result at D means all k are.
func filledAtTop(results []Result, k int) bool {
	return len(results) >= k && results[k-1].Numerator == results[k-1].Denominator
}

// searchWBF is the paper's DI-matching pipeline end to end: every query is
// packed into one combined filter, sent in one KindBatchQuery exchange per
// visited station, and every report merges into one aggregation.
//
// A capped search (searchConfig.capped) first asks every station only for
// persons below the learned bound P (prefixBound). Its answer is final when
// every query holds k kept results at exactly D: a person below P has been
// answered for by every reachable member, so its sum is final, and no person
// at or above P can score above D or win a tie at D. Otherwise one tail
// round re-sends the frame over [P, ∞).
func (c *Cluster) searchWBF(ctx context.Context, ep *epoch, cfg searchConfig, queries []Query) (*Outcome, error) {
	s := &wbfSearch{
		cfg:     cfg,
		queries: queries,
		agg:     core.NewBatchAggregator(),
		out:     &Outcome{PerQuery: make(map[QueryID][]Result, len(queries))},
		visited: make(map[uint32]bool),
		failed:  make(map[uint32]bool),
	}
	out := s.out
	// Replica-aware aggregation: placed persons' replicas report the same
	// pattern, so the best report wins instead of the weights summing — and
	// a replica that fails mid-fan-out is covered by any survivor.
	s.agg.SetReplicated(c.replicatedPred())
	// The routing step: probe the members' summaries and restrict the query
	// fan-out to members that might answer. Routing picks members; the bound
	// picks persons.
	// Verification below still uses the full epoch — a candidate's locals can
	// live on stations that hold no within-band resident, and the verify
	// fetch must see them all.
	s.plan = routePlan{ep: ep}
	if cfg.routing != RoutingFull {
		s.plan = c.planRoute(ctx, ep, cfg, queries, &out.Cost)
	}
	for _, id := range s.plan.ep.ids {
		s.visited[id] = true
	}

	var to PersonID
	capped := cfg.capped()
	if capped {
		to = c.prefix.bound()
	}
	if err := c.answer(ctx, ep, s, s.plan.ep, 0, to); err != nil {
		return nil, err
	}
	s.rank(queries)
	if capped && to != 0 && !allFilled(out, queries, cfg.topK) {
		out.Cost.TailRounds++
		live := ep.filter(func(id uint32) bool { return s.visited[id] && !s.failed[id] })
		if err := c.answer(ctx, ep, s, live, to, 0); err != nil {
			return nil, err
		}
		s.rank(queries)
	}
	if capped {
		c.prefix.learn(s, queries)
	}
	out.Cost.CenterStorageBytes = out.Cost.FilterBytes + s.reportBytes
	if cfg.verify {
		if err := c.verifyWBF(ctx, ep, cfg, queries, out, s.failed); err != nil {
			return nil, err
		}
	}
	out.Cost.StationsFailed += len(s.failed)
	return out, nil
}

// answer runs one phase of a search — the prefix or the tail round, over
// persons in [from, to) — against members of the pinned ep: every member
// gets the search's frame, and a phase with no member builds none. A
// member that fails leaves the candidate replica groups it answered for
// uncovered; their other members are then asked the same phase, before
// anything is ranked, and leave the pruned count.
func (c *Cluster) answer(ctx context.Context, ep *epoch, s *wbfSearch, members *epoch, from, to PersonID) error {
	for len(members.ids) > 0 {
		if err := c.encode(s); err != nil {
			return err
		}
		if err := c.sendRound(ctx, members, s, from, to); err != nil {
			return err
		}
		more := s.plan.siblings(s.visited, s.failed)
		if len(more) == 0 {
			break
		}
		for id := range more {
			s.visited[id] = true
		}
		s.out.Cost.StationsPruned -= len(more)
		members = ep.filter(func(id uint32) bool { return more[id] })
	}
	return nil
}

// allFilled reports whether every query's ranked answer filled k at the top
// score (filledAtTop).
func allFilled(out *Outcome, queries []Query, k int) bool {
	for _, q := range queries {
		if !filledAtTop(out.PerQuery[q.ID], k) {
			return false
		}
	}
	return true
}

// prefixBound is the coordinator's estimate of how far into the person-ID
// space a capped answer reaches, shared by every search of the cluster. It
// is learned, not configured: lo is the smallest person any capped search's
// report carried, and reach the largest k-th result person − lo over queries
// that filled k at the top score. The next prefix round then asks for
// persons below P = lo + reach + ⌈reach/2⌉ + 1 — the k-th results seen so
// far with half as much again in margin. Whatever P is, results are exact:
// a P too low costs a tail round, never an answer.
type prefixBound struct {
	mu      sync.Mutex
	lo      PersonID // dimatch:guardedby mu
	reach   PersonID // dimatch:guardedby mu
	seen    bool     // dimatch:guardedby mu — lo is set
	learned bool     // dimatch:guardedby mu — reach is set
}

// bound returns P, or 0 — the whole range — while nothing is learned or P
// would pass the ID space.
func (b *prefixBound) bound() PersonID {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.learned {
		return 0
	}
	// lo only falls, so lo + reach stays at or below the k-th person it was
	// measured from; only the margin can wrap.
	p := b.lo + b.reach
	if q := p + b.reach - b.reach/2 + 1; q > p {
		return q
	}
	return 0
}

// learn folds one finished capped search into the estimate: its smallest
// reported person lowers lo, and every query that filled k at the top score
// raises reach to its k-th person − lo. A query that could not fill k at the
// top score even over the full range teaches nothing.
func (b *prefixBound) learn(s *wbfSearch, queries []Query) {
	if !s.seen {
		return // no report: nothing filled either
	}
	k := s.cfg.topK
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.seen || s.lo < b.lo {
		b.lo, b.seen = s.lo, true
	}
	for _, q := range queries {
		results := s.out.PerQuery[q.ID]
		if !filledAtTop(results, k) {
			continue
		}
		// The k-th person was reported by this search, so it is ≥ lo.
		if reach := results[k-1].Person - b.lo; !b.learned || reach > b.reach {
			b.reach, b.learned = reach, true
		}
	}
}

// filter returns the sub-epoch of ep's members that keep, ep itself when
// it keeps them all.
func (ep *epoch) filter(keep func(uint32) bool) *epoch {
	sub := &epoch{version: ep.version}
	for i, id := range ep.ids {
		if keep(id) {
			sub.ids = append(sub.ids, id)
			sub.muxes = append(sub.muxes, ep.muxes[i])
		}
	}
	if len(sub.ids) == len(ep.ids) {
		return ep
	}
	return sub
}

// encode builds the search's combined filter once, the first time a phase
// has a member to ask.
func (c *Cluster) encode(s *wbfSearch) error {
	if s.filter != nil {
		return nil
	}
	params, err := c.resolveParams(s.cfg, s.queries)
	if err != nil {
		return err
	}
	enc, err := core.NewEncoder(params, c.length)
	if err != nil {
		return err
	}
	ids := make([]QueryID, 0, len(s.queries))
	for _, q := range s.queries {
		if err := enc.AddQuery(q); err != nil {
			return err
		}
		ids = append(ids, q.ID)
	}
	s.ids, s.filter = ids, enc.Filter()
	s.out.Cost.FilterBytes = s.filter.SizeBytes()
	return nil
}

// sendRound sends the search's combined filter, bounded to persons in
// [from, to), to every station of ep in one KindBatchQuery frame each, and
// feeds every report into the search's aggregation. Stations that fail are
// recorded in s.failed — never fatal. An epoch with no stations sends
// nothing.
func (c *Cluster) sendRound(ctx context.Context, ep *epoch, s *wbfSearch, from, to PersonID) error {
	if len(ep.ids) == 0 {
		return nil
	}
	batchMsg, err := wire.EncodeBatchQuery(wire.BatchQuery{Queries: s.ids, Filter: s.filter, From: from, To: to})
	if err != nil {
		return err
	}
	failed, err := c.fanOut(ctx, ep, batchMsg, &s.out.Cost, func(reply wire.Message) error {
		s.reportBytes += uint64(reply.EncodedSize())
		if err := decodeRoundReply(&s.reply, reply, len(s.ids)); err != nil {
			return err
		}
		for _, rep := range s.reply.Reports {
			s.out.Cost.ReportsReceived++
			s.note(rep.Person)
			if err := s.agg.AddFrom(s.filter.Weights(), rep); err != nil {
				return err
			}
		}
		return nil
	})
	for _, i := range failed {
		s.failed[ep.ids[i]] = true
	}
	return err
}

// decodeRoundReply decodes one station's answer to a round of the given
// number of queries into br, refusing one whose echo names another count:
// the peer matched a different batch, and its pointers index another weight
// table.
func decodeRoundReply(br *wire.BatchReply, reply wire.Message, queries int) error {
	err := wire.DecodeBatchReplyInto(br, reply)
	if err == nil && int(br.Queries) != queries {
		err = fmt.Errorf("answered %d queries, round has %d: %w", br.Queries, queries, wire.ErrBatchMismatch)
	}
	return err
}

// verifyWBF runs the verification phase: pull every ranked candidate's
// local patterns, materialize their globals and drop candidates that fail
// the exact Eq. 2 check against their query. Members that fail the pull join
// failed, the search's one set of failed members.
func (c *Cluster) verifyWBF(ctx context.Context, ep *epoch, cfg searchConfig, queries []Query, out *Outcome, failed map[uint32]bool) error {
	candidates := make(map[PersonID]bool)
	for _, results := range out.PerQuery {
		for _, r := range results {
			candidates[r.Person] = true
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	persons := make([]PersonID, 0, len(candidates))
	for p := range candidates {
		persons = append(persons, p)
	}
	before := out.Cost.BytesUp
	globals, lost, err := c.pullGlobals(ctx, ep, persons, &out.Cost)
	if err != nil {
		return err
	}
	for _, i := range lost {
		failed[ep.ids[i]] = true
	}
	out.Cost.CenterStorageBytes += out.Cost.BytesUp - before

	eps := cfg.params.Epsilon
	for _, q := range queries {
		qGlobal, err := q.Global()
		if err != nil {
			return err
		}
		results := out.PerQuery[q.ID]
		kept := results[:0]
		for _, r := range results {
			if pattern.Similar(qGlobal, globals[r.Person], eps) {
				kept = append(kept, r)
			}
		}
		out.PerQuery[q.ID] = kept
	}
	return nil
}

// rankWBF finalizes one query's WBF candidates. With MinScore unset the
// paper's strict Algorithm 3 applies (delete weight sums above 1, rank
// descending). With MinScore set, ε-induced attribution error is tolerated
// symmetrically: candidates scoring within [MinScore, 2-MinScore] are kept
// and ranked by closeness to the perfect partition score of 1 — a complete
// match sums to exactly 1, a same-category match with jitter lands just
// beside it, and a cross-category accident overshoots far past the band.
func rankWBF(cfg searchConfig, agg *core.Aggregator, q QueryID) []Result {
	if cfg.minScore <= 0 {
		return agg.TopK(q, cfg.topK)
	}
	lo, hi := cfg.minScore, 2-cfg.minScore
	results := agg.Results(q)
	kept := results[:0]
	for _, r := range results {
		if s := r.Score(); s >= lo && s <= hi {
			kept = append(kept, r)
		}
	}
	results = kept
	dist := func(r Result) float64 {
		d := 1 - r.Score()
		if d < 0 {
			d = -d
		}
		return d
	}
	sort.Slice(results, func(i, j int) bool {
		di, dj := dist(results[i]), dist(results[j])
		if di != dj {
			return di < dj
		}
		return results[i].Person < results[j].Person
	})
	if cfg.topK > 0 && len(results) > cfg.topK {
		results = results[:cfg.topK]
	}
	return results
}
