package cluster

import (
	"context"
	"fmt"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/transport"
)

// This file is the cluster side of station persistence (internal/store): the
// constructors that boot durable in-process stations and the rejoin path a
// restarted station takes. The division of labor: the station appends every
// applied batch to its store before acking (station.go), so the cluster only
// has to put a recovered station back into membership — the existing heal
// pass then tops up precisely the delta the station missed while down,
// because Rebalance diffs the recovered residents against the placement
// targets and ships only the copies that are actually absent.

// NewStored builds a cluster of in-process durable stations, one per store.
// Each station recovers its residents (and memoized routing digest) from its
// backend before joining, so booting over non-empty stores is a restart, not
// a cold start. The caller supplies the pattern length, as with NewEmpty;
// recovered residents must match it. The cluster is inert until Start.
func NewStored(opts Options, stations map[uint32]store.Store, patternLength int) (*Cluster, error) {
	ids := make([]uint32, 0, len(stations))
	for id := range stations {
		ids = append(ids, id)
	}
	return assemble(opts, patternLength, nil, nil, ids, func(c *Cluster, id uint32) (*transport.Mux, *Station, error) {
		return c.storedMember(id, nil, stations[id])
	})
}

// storedMember wires one in-process durable member: recovery runs here, and
// residents recovered at a foreign length refuse the member.
func (c *Cluster) storedMember(id uint32, locals map[core.PersonID]pattern.Pattern, st store.Store) (*transport.Mux, *Station, error) {
	return c.pipeMember(func(link transport.Link) (*Station, error) {
		station, err := NewStoredStation(id, locals, link, st)
		if err != nil {
			return nil, err
		}
		if l := station.patternLength(); l != 0 && l != c.length {
			return nil, fmt.Errorf("%w: station %d recovered pattern length %d, cluster is %d", ErrLengthMismatch, id, l, c.length)
		}
		return station, nil
	})
}

// AddStoredStation grows the membership with an in-process durable station —
// the rejoin path of a restarted station: recover from the store, join, and
// let the heal pass re-replicate only what the recovered residents are
// missing. Recovery runs before the cluster lock is taken, so replaying a
// large WAL never stalls concurrent searches. Seed locals (optional, usually
// nil on a rejoin) are persisted through the store like any ingest.
func (c *Cluster) AddStoredStation(ctx context.Context, id uint32, locals map[core.PersonID]pattern.Pattern, st store.Store) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := c.checkJoin(ctx, id, locals); err != nil {
		return err
	}
	mux, station, err := c.storedMember(id, locals, st)
	if err != nil {
		return err
	}
	return c.join(ctx, id, mux, station)
}

// ServeStoredStation runs a durable base station over an established link
// until the center sends a shutdown or the link closes — the body of a
// remote station process started with di-cluster -role station -store wal.
// The station owns the store; it is closed (flushing the sync buffer) when
// the loop exits.
func ServeStoredStation(id uint32, locals map[core.PersonID]pattern.Pattern, link transport.Link, st store.Store) error {
	s, err := NewStoredStation(id, locals, link, st)
	if err != nil {
		return err
	}
	return s.Serve()
}
