package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dimatch"
	"dimatch/internal/core"
	"dimatch/internal/placement"
	"dimatch/internal/store"
	"dimatch/internal/store/wal"
)

// runConfig is one invocation: one workload, one seed.
type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	smoke   bool
	outDir  string // trace files and WAL scratch live under it
}

// result is what a run reports. metrics holds the end-to-end metrics, or
// with tracing on the per-layer ones.
type result struct {
	attempted, failed int
	gates             []string // failed correctness gates; empty means correct
	metrics           map[string]float64
	env               map[string]any
}

// segment is what one measured segment cost the one caller: on the
// read-only workloads a pass over the pool, on ingest_mixed the segment's
// upserts, their flush barrier and the searches that follow it. Every
// segment of a run does the same work.
type segment struct {
	ops     int       // queries answered plus upserts acknowledged durable
	wallS   float64   // the whole segment on the wall clock
	queries int       // queries of the search phase
	cpuS    float64   // process user+sys CPU over the search phase
	latMs   []float64 // one per Search call
	msgs    int       // messages of the search phase, both directions
}

func (s *segment) opsPerS() float64   { return float64(s.ops) / s.wallS }
func (s *segment) p50Ms() float64     { return median(s.latMs) }
func (s *segment) cpuMsPerQ() float64 { return s.cpuS * 1e3 / float64(s.queries) }

// tally is everything a run measures over its searches and writes.
type tally struct {
	segs       []segment
	latMs      []float64 // every search, for the tail diagnostics
	cost       dimatch.CostReport
	searches   int
	queries    int
	results    int
	goodQuery  int
	failedOps  int
	stationRaw uint64
	submitS    float64 // ingest_mixed: Submit loops and Flush barriers
	flushS     float64
	patterns   int
}

type runner struct {
	cfg  runConfig
	sz   sizes
	ds   *dataset
	h    *harness
	res  *result
	opts []dimatch.SearchOption
}

func (r *runner) gate(format string, args ...any) {
	if len(r.res.gates) < 20 {
		r.res.gates = append(r.res.gates, fmt.Sprintf(format, args...))
	}
}

// check applies the workload's correctness gate to one answered entry and
// returns how many of its queries passed.
func (r *runner) check(e *entry, out *dimatch.Outcome) int {
	good := 0
	for i, q := range e.queries {
		got := out.PerQuery[q.ID]
		ok := false
		if e.want != nil {
			ok = sameAnswer([]core.Query{q}, e.want, out.PerQuery)
		} else {
			for _, res := range got {
				ok = ok || res.Person == e.persons[i]
			}
		}
		if ok {
			good++
		} else {
			r.gate("query for person %d: answer %v fails the gate", e.persons[i], got)
		}
	}
	return good
}

// addCost sums the per-search counters the metrics are made of.
func addCost(t *dimatch.CostReport, c dimatch.CostReport) {
	t.BytesDown += c.BytesDown
	t.BytesUp += c.BytesUp
	t.MessagesDown += c.MessagesDown
	t.MessagesUp += c.MessagesUp
	t.FilterBytes += c.FilterBytes
	t.ReportsReceived += c.ReportsReceived
	t.StationsPruned += c.StationsPruned
	t.SummaryRefreshes += c.SummaryRefreshes
	t.SummaryBytesDown += c.SummaryBytesDown
	t.SummaryBytesUp += c.SummaryBytesUp
	t.SubtreeProbes += c.SubtreeProbes
}

// searchPass searches every entry once, one search after another from this
// goroutine — the single closed-loop caller — and adds them to the tally and
// to seg.
func (r *runner) searchPass(ctx context.Context, t *tally, seg *segment, entries []entry) error {
	cpu0, err := cpuSeconds()
	if err != nil {
		return err
	}
	for i := range entries {
		e := &entries[i]
		t0 := time.Now()
		out, err := r.h.c.Search(ctx, e.queries, r.opts...)
		lat := float64(time.Since(t0).Nanoseconds()) / 1e6
		t.searches++
		t.queries += len(e.queries)
		seg.queries += len(e.queries)
		if err != nil {
			t.failedOps++
			r.gate("search: %v", err)
			continue
		}
		seg.ops += len(e.queries)
		seg.latMs = append(seg.latMs, lat)
		t.latMs = append(t.latMs, lat)
		t.failedOps += out.Cost.StationsFailed
		addCost(&t.cost, out.Cost)
		seg.msgs += int(out.Cost.MessagesDown + out.Cost.MessagesUp)
		t.stationRaw = out.Cost.StationRawBytes
		for _, rs := range out.PerQuery {
			t.results += len(rs)
		}
		t.goodQuery += r.check(e, out)
	}
	cpu1, err := cpuSeconds()
	seg.cpuS += cpu1 - cpu0
	return err
}

// ingest streams one segment's upserts, waits for the flush barrier and
// records the writes in the benchmark's copy of the stations.
func (r *runner) ingest(ctx context.Context, in *dimatch.Ingestor, t *tally, seg *segment, ups []upsert) error {
	t0 := time.Now()
	for _, u := range ups {
		if err := in.Submit(ctx, u.person, u.pat); err != nil {
			t.failedOps++
			r.gate("submit person %d: %v", u.person, err)
			continue
		}
		seg.ops++
	}
	t1 := time.Now()
	if err := in.Flush(ctx); err != nil {
		return err
	}
	t.submitS += t1.Sub(t0).Seconds()
	t.flushS += time.Since(t1).Seconds()
	t.patterns += len(ups)
	for _, u := range ups {
		r.ds.upsert(u.person, u.pat)
	}
	return nil
}

// runSegment is one segment, timed as the caller sees it: the writes first
// when the workload has them, then the searches right behind the flush.
// runtime.GC before it keeps the previous segment's garbage out.
func (r *runner) runSegment(ctx context.Context, in *dimatch.Ingestor, t *tally, ups []upsert, entries []entry) error {
	runtime.GC()
	var seg segment
	t0 := time.Now()
	if in != nil {
		if err := r.ingest(ctx, in, t, &seg, ups); err != nil {
			return err
		}
	}
	if err := r.searchPass(ctx, t, &seg, entries); err != nil {
		return err
	}
	seg.wallS = time.Since(t0).Seconds()
	t.segs = append(t.segs, seg)
	return nil
}

func run(ctx context.Context, cfg runConfig) (res *result, err error) {
	w := cfg.w
	r := &runner{cfg: cfg, sz: w.sizes(cfg.smoke), opts: w.searchOptions()}
	r.res = &result{metrics: make(map[string]float64)}
	sz := r.sz
	groups, cycles, nSegments := setupGroups, sz.cycles, sz.segments
	if !cfg.smoke {
		// The segment count is the one dial -seconds turns: a segment's
		// work never changes, nothing is time-boxed.
		nSegments = max(1, nSegments*cfg.seconds/referenceSeconds)
	}
	if cfg.trace {
		// The traced run is a separate run: it keeps enough untraced work
		// for the overhead baseline and the counted metrics, and spends the
		// rest of its time in the traced pass.
		groups, cycles, nSegments = 1, 1, min(nSegments, sz.tracedSegments)
	}

	t0 := time.Now()
	if r.ds, err = newDataset(w, sz); err != nil {
		return nil, err
	}
	datagen := time.Since(t0).Seconds()

	rng := rand.New(rand.NewSource(cfg.seed))
	var (
		pool []entry
		plan ingestPlan
	)
	switch {
	case w.city:
		if pool, err = cityPool(r.ds, rng, sz.pool, w.batch, sz.strata); err != nil {
			return nil, err
		}
	case w.wal:
		// Segment 0 is the untimed warm-up segment.
		plan = newIngestPlan(r.ds, rng, nSegments+1, sz.upserts, sz.pool)
		pool = []entry{plan.probe}
	default:
		pool = sparsePool(r.ds, rng, sz.pool)
	}

	scratch, err := os.MkdirTemp(cfg.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(scratch)) }()

	r.res.env = map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"transport":     "loopback TCP, stations are goroutines of this process",
		"scratch_tmpfs": onTmpfs(scratch), "workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds,
		"persons": sz.persons, "stations": len(r.ds.stationIDs), "queries_per_search": w.batch,
		"setup_cycles": fmt.Sprintf("%d groups of %d", groups, cycles), "segments": nSegments,
		"searches_per_segment": sz.pool, "upserts_per_segment": sz.upserts, "wal_snapshot_bytes": sz.snapshotBytes,
		"pool_digest": fmt.Sprintf("%016x", poolDigest(append(plan.searches, pool)...)),
	}

	// Cold set-up cycles, timed in groups that each last a second or more;
	// the last cluster is kept. A cycle's shutdown is not in its time.
	var setups []float64
	walRoot := ""
	for g := 0; g < groups; g++ {
		groupS := 0.0
		for i := 0; i < cycles; i++ {
			if r.h != nil {
				err = r.h.stop()
				r.h = nil // the collection below frees the old coordinator too
				if err != nil {
					return nil, err
				}
			}
			if w.wal {
				walRoot = filepath.Join(scratch, fmt.Sprintf("wal-%d-%d", g, i))
			}
			runtime.GC()
			t := time.Now()
			if r.h, err = boot(ctx, w, sz, r.ds, walRoot); err != nil {
				return nil, err
			}
			if _, err = r.h.c.Search(ctx, pool[0].queries, r.opts...); err != nil {
				return nil, errors.Join(err, r.h.stop())
			}
			groupS += time.Since(t).Seconds()
		}
		setups = append(setups, groupS/float64(cycles))
	}
	stopped := false
	defer func() {
		if !stopped {
			err = errors.Join(err, r.h.stop())
		}
	}()

	// The untimed pass: reference answers for the city workloads, then one
	// whole segment.
	var in *dimatch.Ingestor
	if w.city {
		full := append([]dimatch.SearchOption{dimatch.WithRouting(dimatch.RoutingFull)}, r.opts...)
		for i := range pool {
			out, err := r.h.c.Search(ctx, pool[i].queries, full...)
			if err != nil {
				return nil, fmt.Errorf("reference search: %w", err)
			}
			pool[i].want = out.PerQuery
		}
	}
	if w.wal {
		if in, err = r.h.c.Stream(dimatch.StreamOptions{Replication: replication}); err != nil {
			return nil, err
		}
		defer in.Close()
	}
	segmentInputs := func(s int) ([]upsert, []entry) {
		if w.wal {
			return plan.upserts[s], plan.searches[s]
		}
		return nil, pool
	}
	var warm tally
	ups, entries := segmentInputs(0)
	if err = r.runSegment(ctx, in, &warm, ups, entries); err != nil {
		return nil, err
	}
	if warm.goodQuery != warm.queries || warm.failedOps > 0 {
		r.gate("warm-up segment: %d of %d queries passed, %d operations failed", warm.goodQuery, warm.queries, warm.failedOps)
	}

	// The measured segments. On ingest_mixed the searches right behind each
	// flush are also the "searchable at once" gate.
	var t tally
	for s := 1; s <= nSegments; s++ {
		ups, entries = segmentInputs(s)
		if err = r.runSegment(ctx, in, &t, ups, entries); err != nil {
			return nil, err
		}
	}
	r.summarize(&t, setups)
	if cfg.trace {
		// A person searched after its upsert is never upserted again, so on
		// ingest_mixed every measured segment's entries are still valid.
		if w.wal {
			entries = nil
			for s := 1; s <= nSegments; s++ {
				entries = append(entries, plan.searches[s]...)
			}
		}
		if err = r.traced(ctx, entries, &t, scratch, datagen); err != nil {
			return nil, err
		}
	}

	var streamStats *dimatch.StreamStats
	if in != nil {
		if err = in.Close(); err != nil {
			return nil, err
		}
		streamStats = in.Report()
	}
	stopped = true
	if err = r.h.stop(); err != nil {
		return nil, err
	}
	if !cfg.trace {
		// Read before the recovery gate, whose reopened images are the
		// benchmark's memory, not the cluster's.
		if r.res.metrics["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
	}
	if w.wal {
		recoverMs, err := r.recoveryGate(walRoot, plan.upserts)
		if err != nil {
			return nil, err
		}
		var folds uint64
		for _, s := range r.h.stores {
			folds += s.Generation()
		}
		r.res.env["wal_folds"] = folds
		if folds != uint64(len(r.h.stores)) && nSegments >= sz.segments {
			r.gate("%d log folds, want one per station: the run did not exercise the WAL fold as sized", folds)
		}
		if cfg.trace {
			r.ingestLayers(&t, streamStats, recoverMs, folds)
		}
	}
	return r.res, nil
}

// summarize turns the tally into metrics. A timed metric is computed per
// segment and the run reports the median of its segments' values; the tail
// percentiles are taken over every search of the run. The counted metrics
// are totals over every search made, per query.
func (r *runner) summarize(t *tally, setups []float64) {
	var ops, p50, cpu, msgs []float64
	for i := range t.segs {
		s := &t.segs[i]
		if len(s.latMs) == 0 {
			continue // every search of it failed; the gates already say so
		}
		ops, p50, cpu = append(ops, s.opsPerS()), append(p50, s.p50Ms()), append(cpu, s.cpuMsPerQ())
		msgs = append(msgs, float64(s.msgs)/float64(s.queries))
	}
	env := r.res.env
	env["segment_ops_per_s"] = fmt.Sprintf("%.5g", ops)
	env["segment_p50_ms"] = fmt.Sprintf("%.5g", p50)
	env["segment_cpu_ms_per_query"] = fmt.Sprintf("%.5g", cpu)
	env["segment_msgs_per_query"] = fmt.Sprintf("%.5g", msgs)
	env["setup_group_s"] = fmt.Sprintf("%.5g", setups)
	env["searches"] = t.searches
	r.res.attempted = t.searches + t.patterns
	r.res.failed = t.failedOps
	if t.goodQuery != t.queries {
		r.gate("measured segments: %d of %d queries passed", t.goodQuery, t.queries)
	}
	m := r.res.metrics
	m["client.ops_per_s"] = median(ops)
	m["client.search_p50_ms"] = median(p50)
	m["client.search_p90_ms"] = quantile(t.latMs, 0.9)
	m["client.search_p99_ms"] = quantile(t.latMs, 0.99)
	m["client.cpu_ms_per_query"] = median(cpu)
	if r.cfg.trace {
		return
	}
	q := float64(t.queries)
	m["setup_s"] = median(setups)
	m["bytes_per_query"] = float64(t.cost.TotalBytes()) / q
	m["msgs_per_query"] = float64(t.cost.MessagesDown+t.cost.MessagesUp) / q
	m["recall"] = float64(t.goodQuery) / q
}

// recoveryGate reopens every station's WAL directory the way a restarted
// station does (open, recover) and checks that a sample of the upserted
// persons came back with their last pattern on each of their replicas. It
// returns the median open+recover time of one station in milliseconds.
func (r *runner) recoveryGate(walRoot string, upserts [][]upsert) (float64, error) {
	images := make(map[uint32]store.Image, len(r.ds.stationIDs))
	var times []float64
	for _, id := range r.ds.stationIDs {
		t0 := time.Now()
		st, err := wal.Open(stationDir(walRoot, id), wal.Options{})
		if err != nil {
			return 0, err
		}
		img, err := st.Recover()
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
		if err = errors.Join(err, st.Close()); err != nil {
			return 0, err
		}
		images[id] = img
		if want := len(r.ds.copies[id].persons); len(img.Persons) != want {
			r.gate("station %d recovered %d residents, want %d", id, len(img.Persons), want)
		}
	}
	for _, seg := range upserts {
		for i := 0; i < len(seg); i += max(1, len(seg)/64) {
			p := seg[i].person
			for _, sid := range placement.Pick(p, r.ds.stationIDs, replication) {
				img := images[sid] // persons ascending, the store's invariant
				at := sort.Search(len(img.Persons), func(k int) bool { return img.Persons[k] >= p })
				if at == len(img.Persons) || img.Persons[at] != p || !img.Locals[at].Equal(r.ds.patterns[p]) {
					r.gate("person %d on recovered station %d: pattern lost", p, sid)
				}
			}
		}
	}
	return median(times), nil
}
