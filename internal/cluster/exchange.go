package cluster

import (
	"context"
	"fmt"
	"sync"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// exchanged is one member's outcome of a concurrent exchange round.
type exchanged struct {
	reply wire.Message
	err   error
}

// roundtripAll sends msg to every mux concurrently and waits for each to
// answer or fail; the results are parallel to muxes. Every coordinator
// fan-out — search rounds, digest fetches, heal pulls, parameter rollouts,
// delegated rounds — runs through it, so this is the one goroutine that
// performs a round trip and no caller holds a lock across it. A cancelled
// ctx fails the round trips still pending; callers check ctx.Err() before
// reading a failure as a dead peer.
func roundtripAll(ctx context.Context, muxes []*transport.Mux, msg wire.Message) []exchanged {
	results := make([]exchanged, len(muxes))
	var wg sync.WaitGroup
	for i, mx := range muxes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := mx.Roundtrip(ctx, msg)
			results[i] = exchanged{reply: reply, err: err}
		}()
	}
	wg.Wait()
	return results
}

// fanOut sends msg to every station of the pinned epoch concurrently and
// waits for each to answer or fail, invoking handle with each reply in
// station-ID order and returning the indexes (into ep.ids) of the stations
// that failed. Per-search traffic is tallied directly into cost (nil bills
// nothing: cluster bookkeeping), covering completed exchanges (request out,
// reply back); a station that dies mid-exchange contributes only to the
// failed list. Unlike shared-meter deltas, the tally is unaffected by other
// searches running concurrently on the same links.
//
// Stations that fail are reported, not fatal: the search degrades exactly
// as a real deployment would. Every station's reply is drained and
// accounted even if handle returns an error partway, so the failure count
// stays truthful; the first handle error is returned after the drain. A
// cancelled context abandons the round and returns an error wrapping
// ErrCancelled.
func (c *Cluster) fanOut(ctx context.Context, ep *epoch, msg wire.Message, cost *CostReport, handle func(reply wire.Message) error) (failed []int, err error) {
	results := roundtripAll(ctx, ep.muxes, msg)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
	}
	var handleErr error
	for i, r := range results {
		if r.err != nil {
			failed = append(failed, i)
			continue
		}
		if cost != nil {
			cost.BytesDown += uint64(msg.EncodedSize())
			cost.MessagesDown++
			cost.BytesUp += uint64(r.reply.EncodedSize())
			cost.MessagesUp++
		}
		if handleErr == nil {
			handleErr = handle(r.reply)
		}
	}
	if len(results) > 0 && len(failed) == len(results) {
		// Distinguish a Shutdown racing this search from genuine total
		// station loss: the former must not read as an empty success.
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return nil, ErrClusterClosed
		}
	}
	return failed, handleErr
}

// pullPatterns is the one raw-pattern pull: a KindDump fan-out over the
// pinned epoch — persons restricts it, empty pulls whole stores — billed to
// cost, handing every shipped (person, local pattern) to each in station
// order. It serves the naive baseline, the verification phase, a region's
// upward digest and the region's own dump forwarding under one rule for
// what counts. Replicas of a placed person are identical full copies, so the
// first shipped copy stands for all of them (station-addressed persons keep
// every complementary piece). A pattern whose length differs from the
// cluster's is skipped and flagged in foreign: stores behind links are
// outside input no handshake has vetted, and such a pattern cannot satisfy
// Eq. 2 against a length-c.length query anyway.
func (c *Cluster) pullPatterns(ctx context.Context, ep *epoch, persons []core.PersonID, cost *CostReport, each func(core.PersonID, pattern.Pattern)) (failed []int, foreign bool, err error) {
	replicated := c.replicatedPred()
	seen := make(map[core.PersonID]bool)
	failed, err = c.fanOut(ctx, ep, wire.EncodeDump(wire.Dump{Persons: persons}), cost, func(reply wire.Message) error {
		data, err := wire.DecodeDumpReply(reply)
		if err != nil {
			return err
		}
		for i, p := range data.Persons {
			if len(data.Locals[i]) != c.length {
				foreign = true
				continue
			}
			if replicated != nil && replicated(p) {
				if seen[p] {
					continue
				}
				seen[p] = true
			}
			each(p, data.Locals[i])
		}
		return nil
	})
	return failed, foreign, err
}

// pullGlobals materializes global patterns from one pull (Eq. 1): the
// shipped pieces of each person sum position by position.
func (c *Cluster) pullGlobals(ctx context.Context, ep *epoch, persons []core.PersonID, cost *CostReport) (globals map[core.PersonID]pattern.Pattern, failed []int, err error) {
	globals = make(map[core.PersonID]pattern.Pattern, len(persons))
	failed, _, err = c.pullPatterns(ctx, ep, persons, cost, func(p core.PersonID, l pattern.Pattern) {
		g := globals[p]
		if g == nil {
			g = make(pattern.Pattern, c.length)
			globals[p] = g
		}
		for j, v := range l {
			g[j] += v
		}
	})
	return globals, failed, err
}
