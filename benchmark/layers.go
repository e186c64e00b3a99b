package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dimatch/internal/bloom"
	"dimatch/internal/cluster"
	"dimatch/internal/core"
	"dimatch/internal/hash"
	"dimatch/internal/pattern"
	"dimatch/internal/placement"
	"dimatch/internal/store"
	"dimatch/internal/store/wal"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// nsPerOp times n calls of f five times over and returns the median
// nanoseconds per call.
func nsPerOp(n int, f func(i int)) float64 {
	reps := make([]float64, 5)
	for r := range reps {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		reps[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(reps)
}

// sink keeps the compiler from dropping the measured calls.
var sink uint64

// primitiveCosts times the three leaf primitives under every layer above,
// at the geometry (m, k) of the workload's own search filter.
func primitiveCosts(p core.Params, stationIDs []uint32) (hashNs, bloomNs, pickNs float64, err error) {
	fam := hash.NewFamily(p.Seed, p.Hashes, p.Bits)
	var buf [64]uint64
	hashNs = nsPerOp(200_000, func(i int) {
		sink += fam.Indexes(int64(i), buf[:0])[0]
	})
	bf, err := bloom.New(p.Bits, p.Hashes, p.Seed)
	if err != nil {
		return 0, 0, 0, err
	}
	for i := 0; i < 1024; i++ {
		bf.Add(int64(2 * i))
	}
	bloomNs = nsPerOp(200_000, func(i int) {
		if bf.Contains(int64(i)) {
			sink++
		}
	})
	pickNs = nsPerOp(20_000, func(i int) {
		sink += uint64(placement.Pick(core.PersonID(i+1), stationIDs, replication)[0])
	})
	return hashNs, bloomNs, pickNs, nil
}

// rttMicros is the median Mux.Roundtrip of a stats request to an idle
// one-resident station over the given link pair.
func rttMicros(ctx context.Context, center, stationEnd transport.Link, length int) (float64, error) {
	local := make(pattern.Pattern, length)
	local[0] = 1
	var wg sync.WaitGroup
	wg.Add(1)
	var serveErr error
	go func() {
		defer wg.Done()
		serveErr = cluster.ServeStation(1, map[core.PersonID]pattern.Pattern{1: local}, stationEnd)
	}()
	mux := transport.NewMux(center)
	const n = 2000
	lat := make([]float64, 0, n)
	var err error
	for i := 0; i < n+100 && err == nil; i++ {
		t0 := time.Now()
		_, err = mux.Roundtrip(ctx, wire.StatsMessage())
		if i >= 100 { // the first hundred warm the link
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	if err == nil {
		err = mux.Send(wire.ShutdownMessage())
	}
	mux.Close()
	wg.Wait()
	if err == nil {
		err = serveErr
	}
	return median(lat), err
}

func tcpRTT(ctx context.Context, length int) (float64, error) {
	ln, err := transport.Listen("127.0.0.1:0", nil, nil)
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	stationEnd, err := transport.Dial(ln.Addr(), nil, nil)
	if err != nil {
		return 0, err
	}
	center, err := ln.Accept()
	if err != nil {
		stationEnd.Close()
		return 0, err
	}
	return rttMicros(ctx, center, stationEnd, length)
}

func pipeRTT(ctx context.Context, length int) (float64, error) {
	center, stationEnd := transport.Pipe(nil, nil)
	return rttMicros(ctx, center, stationEnd, length)
}

// walCosts measures the WAL store alone, on a scratch store under dir
// holding one station's residents: a 256-pattern append (the stream's flush
// batch), the log bytes that append wrote per pattern, and one snapshot of
// the whole image.
func walCosts(dir string, res *residents) (appendUs, logBytesPerPattern, snapshotMs float64, err error) {
	st, err := wal.Open(dir, wal.Options{SnapshotEvery: -1, SnapshotBytes: -1})
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.Close()
	const batch = 256
	rng := rand.New(rand.NewSource(1))
	reps := make([]float64, 0, 40)
	for r := 0; r < cap(reps); r++ {
		b := store.Batch{Op: store.OpIngest}
		for i := 0; i < batch; i++ {
			b.Persons = append(b.Persons, res.persons[rng.Intn(len(res.persons))])
			b.Locals = append(b.Locals, randomPattern(rng))
		}
		t0 := time.Now()
		if err := st.Append(b); err != nil {
			return 0, 0, 0, err
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil {
		return 0, 0, 0, err
	}
	var logBytes int64
	for _, l := range logs {
		fi, err := os.Stat(l)
		if err != nil {
			return 0, 0, 0, err
		}
		logBytes += fi.Size()
	}
	t0 := time.Now()
	if err := st.Snapshot(store.Image{Persons: res.persons, Locals: res.locals}); err != nil {
		return 0, 0, 0, err
	}
	snapshotMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	return median(reps), float64(logBytes) / float64(batch*len(reps)), snapshotMs, nil
}
