package dimatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"dimatch/internal/cdr"
	"dimatch/internal/core"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// scratchCity generates a city the shape of the benchmark's (3 days × 8
// intervals) and returns it with its station-major locals.
func scratchCity(t testing.TB, persons, stations int) (*cdr.Dataset, map[uint32]map[PersonID]Pattern) {
	t.Helper()
	city, err := cdr.Generate(cdr.Config{Seed: 20120612, Persons: persons, Stations: stations, Days: 3, IntervalsPerDay: 8, VolumeLevels: 17})
	if err != nil {
		t.Fatal(err)
	}
	data := make(map[uint32]map[PersonID]Pattern)
	for _, s := range city.StationIDs() {
		locals := make(map[PersonID]Pattern)
		for p, l := range city.StationLocals(s) {
			locals[PersonID(p)] = l
		}
		data[uint32(s)] = locals
	}
	return city, data
}

// cityQueries returns n queries, IDs 1..n, each a city person's locals,
// drawn from persons observed at two stations or more.
func cityQueries(city *cdr.Dataset, rng *rand.Rand, n, persons int) []Query {
	var out []Query
	for len(out) < n {
		if locals := city.QueryLocalsOf(cdr.PersonID(rng.Intn(persons))); len(locals) >= 2 {
			out = append(out, Query{ID: QueryID(len(out) + 1), Locals: locals})
		}
	}
	return out
}

// roundFrame encodes one search round over queries as a cluster sizes it.
func roundFrame(t testing.TB, length int, queries []Query, from, to PersonID) wire.Message {
	t.Helper()
	params, err := core.SizedParams(Params{}, length, queries, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoder(params, length)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]QueryID, len(queries))
	for i, q := range queries {
		if err := enc.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		ids[i] = q.ID
	}
	m, err := wire.EncodeBatchQuery(wire.BatchQuery{Queries: ids, Filter: enc.Filter(), From: from, To: to})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// serveFresh is a reference station's serve loop: it answers like Serve but
// drops the round scratch before every message, so each round decodes,
// walks and encodes on fresh buffers.
func serveFresh(st *station, link Link) {
	for {
		msg, err := link.Recv()
		if err != nil || msg.Kind == wire.KindShutdown {
			return
		}
		st.round = roundScratch{}
		reply, err := st.handle(msg)
		if err != nil {
			return
		}
		if link.Send(reply.WithRequest(msg.Request)) != nil {
			return
		}
	}
}

// teeLink is a center-side link that sends every frame both to a station and
// to a freshly decoding reference station holding the same data, in one
// order, and holds every reply to its reference twin byte for byte.
type teeLink struct {
	Link      // the station under test
	ref  Link // the reference station

	sendMu sync.Mutex // one order for both stations

	mu      sync.Mutex
	batches int   // dimatch:guardedby mu — batch replies found equal
	diff    error // dimatch:guardedby mu
}

func (l *teeLink) Send(m wire.Message) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	if err := l.Link.Send(m); err != nil {
		return err
	}
	return l.ref.Send(m)
}

func (l *teeLink) Recv() (wire.Message, error) {
	m, err := l.Link.Recv()
	if err != nil {
		return m, err
	}
	want, err := l.ref.Recv()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case err != nil:
		l.diff = fmt.Errorf("reference station: %w", err)
	case m.Kind != want.Kind || m.Request != want.Request || !bytes.Equal(m.Payload, want.Payload):
		if l.diff == nil {
			l.diff = fmt.Errorf("%v reply to request %d: %d B, the fresh station's %v %d B differ", m.Kind, m.Request, len(m.Payload), want.Kind, len(want.Payload))
		}
	case m.Kind == wire.KindBatchReply:
		l.batches++
	}
	return m, nil
}

func (l *teeLink) Close() error {
	return errors.Join(l.Link.Close(), l.ref.Close())
}

// TestStationRepliesMatchFreshStation: a station reusing its round scratch
// answers byte for byte as a station decoding every round on fresh buffers,
// over concurrent searches of one to four queries — so frames of every size
// reuse one scratch — interleaved with ingests and evicts of the residents
// they walk. The searches go at random to a capped cluster (top-5: full,
// prefix and tail rounds) or an uncapped one over the same data, and every
// mutation to both. Every frame a coordinator sends goes to both a station
// and its fresh twin, in one order, so their stores stay equal.
func TestStationRepliesMatchFreshStation(t *testing.T) {
	const persons = 1200
	city, data := scratchCity(t, persons, 8)
	var tees []*teeLink
	build := func(opts Options) *Cluster {
		var members []Member
		for id, locals := range data {
			center, end := transport.Pipe(nil, nil)
			refCenter, refEnd := transport.Pipe(nil, nil)
			st, err := newStation(id, locals, end, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newStation(id, locals, refEnd, nil)
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = st.Serve() }()
			go serveFresh(ref, refEnd)
			tee := &teeLink{Link: center, ref: refCenter}
			tees = append(tees, tee)
			members = append(members, Member{ID: id, Link: tee})
		}
		c, err := NewCluster(opts, city.Length(), members...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	clusters := []*Cluster{build(Options{TopK: 5}), build(Options{})}
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 12; i++ {
				queries := cityQueries(city, rng, 1+rng.Intn(4), persons)
				if _, err := clusters[rng.Intn(2)].Search(ctx, queries); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		ids := make([]uint32, 0, len(data))
		for id := range data {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for i := 0; i < 24; i++ {
			id := ids[rng.Intn(len(ids))]
			p := PersonID(rng.Intn(persons))
			if i%3 == 2 {
				for _, c := range clusters {
					if err := c.Evict(ctx, id, []PersonID{p, p + 1}); err != nil {
						errs <- err
						return
					}
				}
				continue
			}
			// The person takes over another person's locals here: a pattern
			// the queries can match.
			locals := city.QueryLocalsOf(cdr.PersonID(rng.Intn(persons)))
			for _, c := range clusters {
				if err := c.Ingest(ctx, id, map[PersonID]Pattern{p: locals[0]}); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, c := range clusters {
		if err := c.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
	batches := 0
	for _, tee := range tees {
		tee.mu.Lock()
		if tee.diff != nil {
			t.Error(tee.diff)
		}
		batches += tee.batches
		tee.mu.Unlock()
	}
	if batches < 100 {
		t.Fatalf("%d batch replies compared; the searches should have sent at least 100", batches)
	}
	t.Logf("%d batch replies byte-equal to the fresh station's", batches)
}

// cityStation builds a station holding the largest station's residents of
// a 20 000-person city, and one search round's frame over nq of its queries.
func cityStation(t testing.TB, nq int) (*station, wire.Message) {
	t.Helper()
	const persons = 20_000
	city, data := scratchCity(t, persons, 64)
	var id uint32
	for s, locals := range data {
		if len(locals) > len(data[id]) || (len(locals) == len(data[id]) && s < id) {
			id = s
		}
	}
	st, err := newStation(id, data[id], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st, roundFrame(t, city.Length(), cityQueries(city, rand.New(rand.NewSource(1)), nq, persons), 0, 0)
}

// roundCost runs the round n times and returns its mallocs and bytes per run.
func roundCost(t *testing.T, n int, round func()) (allocs, bytes float64) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		round()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// TestAllocsWarmStationRound: a warm station answers a city round — about
// 3 100 residents, one query — allocating only for its walk's worker
// goroutines, at most 10 % of the bytes a round on fresh buffers (what every
// round cost before the round scratch) allocates. Both figures are logged.
// The frame the link read is the caller's here and counts in neither.
func TestAllocsWarmStationRound(t *testing.T) {
	st, msg := cityStation(t, 1)
	round := func() {
		if _, err := st.handleBatch(msg); err != nil {
			t.Fatal(err)
		}
	}
	fresh := func() {
		st.round = roundScratch{}
		round()
	}
	round()
	warmAllocs, warmBytes := roundCost(t, 50, round)
	freshAllocs, freshBytes := roundCost(t, 50, fresh)
	t.Logf("station of %d residents, city round: warm %.1f allocs, %.0f B; fresh %.1f allocs, %.0f B", st.Residents(), warmAllocs, warmBytes, freshAllocs, freshBytes)
	if limit := float64(2 * runtime.GOMAXPROCS(0)); warmAllocs > limit {
		t.Errorf("a warm round allocates %.1f times; want at most %v, the walk's goroutines", warmAllocs, limit)
	}
	if warmBytes > freshBytes/10 {
		t.Errorf("a warm round allocates %.0f B, a fresh one %.0f B; want at most 10 %%", warmBytes, freshBytes)
	}
}

// TestStationRoundScratchBounded pins what a station keeps between rounds:
// a city round's and a 16-query round's scratch stay (under
// roundScratchMax), and a round that grows it past roundScratchMax — every
// one of 40 000 residents reported — leaves nothing once its reply is sent.
func TestStationRoundScratchBounded(t *testing.T) {
	st, city := cityStation(t, 1)
	_, batch := cityStation(t, 16)
	center, end := transport.Pipe(nil, nil)
	st.link = end
	// serve answers one frame through Serve, which returns on the shutdown
	// behind it: the scratch is read after the serve loop has let it go.
	serve := func(m wire.Message) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- st.Serve() }()
		if err := center.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := center.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := center.Send(wire.ShutdownMessage()); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []wire.Message{city, batch} {
		serve(m)
		if n := st.round.bytes(); n == 0 || n > roundScratchMax {
			t.Fatalf("after a %d-byte round frame the station keeps %d B; want some, at most %d", len(m.Payload), n, roundScratchMax)
		}
		t.Logf("a round of a %d-byte frame keeps %d B", len(m.Payload), st.round.bytes())
	}

	one := Pattern{1, 2, 3, 4}
	locals := make(map[PersonID]Pattern, 40_000)
	for p := PersonID(1); p <= 40_000; p++ {
		locals[p] = one
	}
	big, err := newStation(9, locals, end, nil)
	if err != nil {
		t.Fatal(err)
	}
	st = big
	serve(roundFrame(t, len(one), []Query{{ID: 1, Locals: []Pattern{one}}}, 0, 0))
	if n := st.round.bytes(); n > roundScratchMax {
		t.Fatalf("after a round of 40 000 reports the station keeps %d B; want at most %d", n, roundScratchMax)
	}
}
