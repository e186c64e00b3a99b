package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"dimatch"
	"dimatch/internal/store/wal"
)

// harness is one cluster inside the benchmark process: a coordinator over
// loopback TCP links, one station goroutine per link.
type harness struct {
	c      *dimatch.Cluster
	ln     *dimatch.Listener
	wg     sync.WaitGroup
	stores map[uint32]*wal.Store // WAL-backed stations only

	mu        sync.Mutex
	serveErrs []error
}

func stationDir(walRoot string, id uint32) string {
	return filepath.Join(walRoot, fmt.Sprintf("station-%d", id))
}

// boot dials one link per station, starts the station loops (empty; over a
// fresh WAL store under walRoot when the workload asks for one) and loads
// the population over the wire the way a deployment would: Place for the
// sparse population, per-station Ingest for the city.
func boot(ctx context.Context, w *workload, sz sizes, ds *dataset, walRoot string) (*harness, error) {
	h := &harness{stores: make(map[uint32]*wal.Store)}
	ln, err := dimatch.Listen("127.0.0.1:0", nil, nil)
	if err != nil {
		return nil, err
	}
	h.ln = ln
	links := make(map[uint32]dimatch.Link, len(ds.stationIDs))
	fail := func(err error) (*harness, error) {
		for _, l := range links {
			l.Close() // unblocks the station loops already serving
		}
		h.wg.Wait()
		ln.Close()
		return nil, err
	}
	for _, id := range ds.stationIDs {
		stationEnd, err := dimatch.Dial(ln.Addr(), nil, nil)
		if err != nil {
			return fail(err)
		}
		centerEnd, err := ln.Accept()
		if err != nil {
			stationEnd.Close()
			return fail(err)
		}
		links[id] = centerEnd
		var st *wal.Store
		if w.wal {
			if st, err = wal.Open(stationDir(walRoot, id), wal.Options{SnapshotBytes: sz.snapshotBytes}); err != nil {
				stationEnd.Close()
				return fail(err)
			}
			h.stores[id] = st
		}
		h.wg.Add(1)
		go func(id uint32) {
			defer h.wg.Done()
			var err error
			if st != nil {
				err = dimatch.ServeStoredStation(id, nil, stationEnd, st)
			} else {
				err = dimatch.ServeStation(id, nil, stationEnd)
			}
			if err != nil {
				h.mu.Lock()
				h.serveErrs = append(h.serveErrs, fmt.Errorf("station %d: %w", id, err))
				h.mu.Unlock()
			}
		}(id)
	}
	c, err := dimatch.NewClusterWithLinks(w.opts, links, ds.length, nil, nil)
	if err != nil {
		return fail(err)
	}
	h.c = c
	if ds.city != nil {
		for _, id := range ds.stationIDs {
			if err := c.Ingest(ctx, id, ds.stationData[id]); err != nil {
				return nil, errors.Join(err, h.stop())
			}
		}
	} else if err := c.Place(ctx, ds.patterns, dimatch.WithReplication(replication)); err != nil {
		return nil, errors.Join(err, h.stop())
	}
	return h, nil
}

// stop shuts the cluster down and waits for every station loop to exit.
func (h *harness) stop() error {
	err := h.c.Shutdown()
	h.wg.Wait()
	h.ln.Close()
	h.mu.Lock()
	defer h.mu.Unlock()
	return errors.Join(append(h.serveErrs, err)...)
}
