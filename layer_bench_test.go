package dimatch

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"dimatch/internal/store"
	"dimatch/internal/store/wal"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// benchPatterns draws n length-24 patterns for persons 1..n, every cell in
// [1, 50].
func benchPatterns(n int) map[PersonID]Pattern {
	rng := rand.New(rand.NewSource(1))
	batch := make(map[PersonID]Pattern, n)
	for p := PersonID(1); p <= PersonID(n); p++ {
		pat := make(Pattern, 24)
		for i := range pat {
			pat[i] = rng.Int63n(50) + 1
		}
		batch[p] = pat
	}
	return batch
}

// BenchmarkPlace is the one placement path behind Place, stream flushes
// and heals, at R = 2 over in-process stations. /stream is the streaming
// pipeline's default batch: 2 048 persons over 16 stations, about 256
// copies per station exchange. /bulk is a cold load: 100 000 persons over
// 64 stations, about 3 125 copies per exchange, every op into a fresh
// cluster built (and the last one shut down) outside the timer.
func BenchmarkPlace(b *testing.B) {
	for _, bc := range []struct {
		name              string
		persons, stations int
		cold              bool
	}{
		{"stream", 2048, 16, false},
		{"bulk", 100_000, 64, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			stations := make([]uint32, bc.stations)
			for i := range stations {
				stations[i] = uint32(i + 1)
			}
			boot := func() *Cluster {
				c, err := NewCluster(placedOptions(), 24, emptyMembers(stations)...)
				if err != nil {
					b.Fatal(err)
				}
				return c
			}
			c := boot()
			b.Cleanup(func() { _ = c.Shutdown() })
			batch := benchPatterns(bc.persons)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.cold && i > 0 {
					b.StopTimer()
					_ = c.Shutdown()
					c = boot()
					b.StartTimer()
				}
				if err := c.Place(ctx, batch, WithReplication(2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdSetup is a cold cluster's set-up up to its first answer:
// BenchmarkPlace/bulk's 100 000 persons placed at R = 2 into 64 fresh
// in-process stations, then one routed point search, which routes on the
// stations' digests. The cluster is built (and the last one shut down)
// outside the timer.
func BenchmarkColdSetup(b *testing.B) {
	stations := make([]uint32, 64)
	for i := range stations {
		stations[i] = uint32(i + 1)
	}
	boot := func() *Cluster {
		c, err := NewCluster(placedOptions(), 24, emptyMembers(stations)...)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	batch := benchPatterns(100_000)
	q := []Query{{ID: 1, Locals: []Pattern{batch[4242]}}}
	ctx := context.Background()
	var c *Cluster
	b.Cleanup(func() {
		if c != nil {
			_ = c.Shutdown()
		}
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if c != nil {
			_ = c.Shutdown()
		}
		c = boot()
		b.StartTimer()
		if err := c.Place(ctx, batch, WithReplication(2)); err != nil {
			b.Fatal(err)
		}
		out, err := c.Search(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.PerQuery[1]) == 0 {
			b.Fatal("the routed search found nothing")
		}
	}
}

// BenchmarkStationIngest times a station taking one 25 000-row ingest frame
// of length-24 rows, the share of a 16-station bulk load at R = 2 that one
// station receives. /append and /replace are durable: decode, store, WAL
// append and fsync. /append is the streamed shape: every op's persons rank
// above every resident, so the station adopts the decoded rows; every 8 ops
// the store is emptied and the log folded outside the timer, which bounds
// memory. /replace re-ingests the same persons every op, so each row is
// replaced in place; the log is folded outside the timer every 32 ops.
// /memory is /append on a station with a nil store, as the benchmark's
// in-memory workloads run theirs: decode and store only, the store emptied
// outside the timer every 8 ops.
func BenchmarkStationIngest(b *testing.B) {
	const rows = 25_000
	patterns := benchPatterns(rows)
	persons := sortedKeys(patterns)
	frame := func(b *testing.B, offset PersonID) wire.Message {
		shifted, locals := make([]PersonID, len(persons)), make([]Pattern, len(persons))
		for i, p := range persons {
			shifted[i], locals[i] = p+offset, patterns[p]
		}
		return ingestFrame(b, shifted, locals)
	}
	appendFrames := func(b *testing.B) []wire.Message {
		frames := make([]wire.Message, 8)
		for k := range frames {
			frames[k] = frame(b, PersonID(k*rows))
		}
		return frames
	}
	run := func(b *testing.B, frames []wire.Message, every int, empty, durable bool) {
		var (
			log *wal.Store
			st  Store // nil: the station is in memory
		)
		if durable {
			var err error
			if log, err = wal.Open(filepath.Join(b.TempDir(), "station-1"), wal.Options{SnapshotEvery: -1, SnapshotBytes: -1}); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = log.Close() })
			st = log
		}
		_, end := transport.Pipe(nil, nil)
		s, err := newStation(1, nil, end, st)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(frames[0].Payload)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.handleIngest(frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
			if i%every == every-1 {
				b.StopTimer()
				if empty {
					s.residents = store.Residents{}
				}
				if log != nil {
					if err := log.SnapshotCells(store.CellImage{Persons: s.residents.Persons(), Locals: s.residents.Locals()}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
		}
	}
	b.Run("append", func(b *testing.B) {
		frames := appendFrames(b)
		run(b, frames, len(frames), true, true)
	})
	b.Run("replace", func(b *testing.B) {
		run(b, []wire.Message{frame(b, 0)}, 32, false, true)
	})
	b.Run("memory", func(b *testing.B) {
		frames := appendFrames(b)
		run(b, frames, len(frames), true, false)
	})
}

// BenchmarkStationRound is one uncapped search round through handleBatch on
// the largest station of cityStation's 20 000-person city: the frame's
// decode, the walk over every resident and the reply's encode. /city is a
// one-query round, as city_fanout sends each station; /batch16 a 16-query
// round, as batch_verify sends. Both report ns per resident walked.
func BenchmarkStationRound(b *testing.B) {
	for _, bc := range []struct {
		name    string
		queries int
	}{
		{"city", 1},
		{"batch16", 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st, msg := cityStation(b, bc.queries)
			if _, err := st.handleBatch(msg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.handleBatch(msg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*st.Residents()), "ns/resident")
		})
	}
}
