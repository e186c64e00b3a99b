package dimatch

import (
	"context"
	"fmt"
	"slices"

	"dimatch/internal/placement"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// exchange is the coordinator's one round trip, run with each of muxes
// concurrently: member i's frame is built by msg(i) on its own goroutine,
// and landed gets its reply or error on the caller's goroutine as it lands.
// It returns once every round trip has ended; no caller holds a lock across
// it. A cancelled ctx fails the round trips still pending; callers check
// ctx.Err() before reading a failure as a dead peer.
func exchange(ctx context.Context, muxes []*transport.Mux, msg func(i int) (wire.Message, error), landed func(i int, reply wire.Message, err error)) {
	type result struct {
		i     int
		reply wire.Message
		err   error
	}
	results := make(chan result, len(muxes))
	for i, mx := range muxes {
		go func() {
			m, err := msg(i)
			var reply wire.Message
			if err == nil {
				reply, err = mx.Roundtrip(ctx, m)
			}
			results <- result{i, reply, err}
		}()
	}
	for range muxes {
		r := <-results
		landed(r.i, r.reply, r.err)
	}
}

// fanOut sends msg to every station of the pinned epoch, handing handle each
// station's index (into ep.ids) and reply as it lands, and returns the
// indexes of the stations that failed, ascending. Per-search traffic is
// tallied directly into cost (nil bills nothing: cluster bookkeeping),
// covering completed exchanges (request out, reply back); a station that
// dies mid-exchange contributes only to the failed list. Unlike
// shared-meter deltas, the tally is unaffected by other searches running
// concurrently on the same links.
//
// Stations that fail are reported, not fatal: the search degrades exactly
// as a real deployment would. Every station's reply is drained and
// accounted even if handle returns an error partway, so the failure count
// stays truthful; the first handle error is returned after the drain. A
// cancelled context abandons the round and returns an error wrapping
// ErrCancelled.
func (c *Cluster) fanOut(ctx context.Context, ep *epoch, msg wire.Message, cost *CostReport, handle func(i int, reply wire.Message) error) (failed []int, err error) {
	var handleErr error
	exchange(ctx, ep.muxes, func(int) (wire.Message, error) { return msg, nil }, func(i int, reply wire.Message, err error) {
		if err != nil {
			failed = append(failed, i)
			return
		}
		if cost != nil {
			cost.BytesDown += uint64(msg.EncodedSize())
			cost.MessagesDown++
			cost.BytesUp += uint64(reply.EncodedSize())
			cost.MessagesUp++
		}
		if handleErr == nil {
			if err := handle(i, reply); err != nil {
				handleErr = fmt.Errorf("cluster: station %d: %w", ep.ids[i], err)
			}
		}
	})
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
	}
	slices.Sort(failed)
	if len(ep.ids) > 0 && len(failed) == len(ep.ids) {
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
// Station-addressed persons keep every complementary piece, handed over as
// the replies land. A placed person's replicas are full copies of one
// pattern, so one copy stands for all of them, handed over after the
// fan-out, persons ascending: the copy whose placement.ContentHash is the
// one the placement table recorded, as Rebalance counts a holder — a
// replica whose ingest failed still holds the old pattern — or, when no
// copy matches, the lowest station's, whatever order the replies land in.
// A pattern whose length differs from the cluster's is skipped: stores
// behind links are outside input, and such a pattern cannot satisfy Eq. 2
// against a length-c.length query anyway.
func (c *Cluster) pullPatterns(ctx context.Context, ep *epoch, persons []PersonID, cost *CostReport, each func(PersonID, Pattern)) (failed []int, err error) {
	c.mu.Lock()
	t := c.placeTab
	c.mu.Unlock()
	// picks holds, per reported person, nil when it is not placed — the
	// table is read once per person and pull — or its copy so far and the
	// index of the station it came from.
	type pick struct {
		hash    uint64
		local   Pattern
		from    int
		current bool
	}
	picks := make(map[PersonID]*pick)
	pull := wire.Message{Kind: wire.KindDump, Payload: wire.EncodePersons(persons)}
	failed, err = c.fanOut(ctx, ep, pull, cost, func(st int, reply wire.Message) error {
		shipped, locals, err := decodeDumpReply(reply)
		if err != nil {
			return err
		}
		for i, p := range shipped {
			l := locals[i]
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
			case pk.local == nil || st < pk.from:
				pk.local, pk.from = l, st
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

// decodeDumpReply parses a station's answer to a KindDump — the requested
// rows it holds, person-ascending — and refuses a reply of any other kind.
func decodeDumpReply(m wire.Message) ([]PersonID, []Pattern, error) {
	if m.Kind != wire.KindDumpReply {
		return nil, nil, fmt.Errorf("wire: decoding %v as dump-reply", m.Kind)
	}
	return wire.DecodeRows[Pattern](m.Payload)
}
