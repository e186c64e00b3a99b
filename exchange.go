package dimatch

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"dimatch/internal/placement"
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
// fan-out — search rounds, digest fetches, heal pulls, join handshakes —
// runs through it, so this is the one goroutine that
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
			if err := handle(r.reply); err != nil {
				handleErr = fmt.Errorf("cluster: station %d: %w", ep.ids[i], err)
			}
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
// cost, handing every shipped (person, local pattern) to each. It serves the
// naive baseline and the verification phase under one rule for what counts.
// Station-addressed persons keep every complementary piece, handed over in
// station order as the replies are read. A placed person's replicas are full
// copies of one pattern, so one copy stands for all of them, handed over
// after the fan-out, persons ascending: the copy whose placement.ContentHash
// is the one the placement table recorded, as Rebalance counts a holder —
// a replica whose ingest failed still holds the old pattern — or, when no
// copy matches, the first in station order. A pattern whose length differs
// from the cluster's is skipped: stores behind links are outside input, and
// such a pattern cannot satisfy Eq. 2 against a length-c.length query
// anyway.
func (c *Cluster) pullPatterns(ctx context.Context, ep *epoch, persons []PersonID, cost *CostReport, each func(PersonID, Pattern)) (failed []int, err error) {
	c.mu.Lock()
	t := c.placeTab
	c.mu.Unlock()
	// picks holds, per reported person, nil when it is not placed — the
	// table is read once per person and pull — or its copy so far.
	type pick struct {
		hash    uint64
		local   Pattern
		current bool
	}
	picks := make(map[PersonID]*pick)
	failed, err = c.fanOut(ctx, ep, wire.EncodeDump(wire.Dump{Persons: persons}), cost, func(reply wire.Message) error {
		data, err := wire.DecodeDumpReply(reply)
		if err != nil {
			return err
		}
		for i, p := range data.Persons {
			l := data.Locals[i]
			if len(l) != c.length {
				continue
			}
			pk, seen := picks[p]
			if !seen && t != nil {
				if e, placed := t.Get(p); placed {
					pk = &pick{hash: e.Hash}
				}
				picks[p] = pk
			}
			switch {
			case pk == nil:
				each(p, l)
			case pk.current:
			case placement.ContentHash(l) == pk.hash:
				pk.local, pk.current = l, true
			case pk.local == nil:
				pk.local = l
			}
		}
		return nil
	})
	if err != nil {
		return failed, err
	}
	var placed []PersonID
	for p, pk := range picks {
		if pk != nil && pk.local != nil {
			placed = append(placed, p)
		}
	}
	slices.Sort(placed)
	for _, p := range placed {
		each(p, picks[p].local)
	}
	return failed, nil
}

// pullGlobals materializes global patterns from one pull (Eq. 1): the
// shipped pieces of each person sum position by position.
func (c *Cluster) pullGlobals(ctx context.Context, ep *epoch, persons []PersonID, cost *CostReport) (globals map[PersonID]Pattern, failed []int, err error) {
	globals = make(map[PersonID]Pattern, len(persons))
	failed, err = c.pullPatterns(ctx, ep, persons, cost, func(p PersonID, l Pattern) {
		g := globals[p]
		if g == nil {
			g = make(Pattern, c.length)
			globals[p] = g
		}
		for j, v := range l {
			g[j] += v
		}
	})
	return globals, failed, err
}
