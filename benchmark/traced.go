package main

import (
	"context"
	"path/filepath"
	"time"

	"dimatch"
	"dimatch/internal/core"
)

// verifyReps is how often the traced pass runs a batch_verify entry with
// and without verification.
const verifyReps = 3

// medianUs is the median over the traced searches of a per-search time,
// in microseconds.
func medianUs(perQuery map[int]int64) float64 {
	vals := make([]float64, 0, len(perQuery))
	for _, ns := range perQuery {
		vals = append(vals, float64(ns)/1e3)
	}
	return median(vals)
}

// traced is the traced pass and everything else only the per-layer report
// needs. Each entry is searched for real under a client span, then replayed
// by hand layer by layer; the two answers must agree.
func (r *runner) traced(ctx context.Context, entries []entry, total *tally, scratch string, datagen float64) error {
	w, m := r.cfg.w, r.res.metrics
	rp, err := newReplayer(w, r.ds)
	if err != nil {
		return err
	}
	tr := newTracer()
	n := min(r.sz.traced, len(entries))
	var clientMs, verifyUs []float64
	for i := 0; i < n; i++ {
		e := &entries[i]
		s := tr.begin("cluster.search", i, -1)
		out, err := r.h.c.Search(ctx, e.queries, r.opts...)
		tr.end(s)
		if err != nil {
			return err
		}
		clientMs = append(clientMs, float64(tr.spans[s].End-tr.spans[s].Start)/1e6)
		if r.check(e, out) != len(e.queries) {
			r.gate("traced pass: entry %d fails its gate", i)
		}
		if w.verify {
			// The replay stops before verification, so it is compared with
			// the same search run verify-off; what the verify round costs
			// is the difference of the two real searches, each taken as
			// the best of verifyReps alternating runs, since the round is
			// a few percent of a search and the host's noise is more.
			s2 := tr.begin("cluster.search_noverify", i, -1)
			out, err = r.h.c.Search(ctx, e.queries, dimatch.WithVerify(false))
			tr.end(s2)
			if err != nil {
				return err
			}
			on, off := tr.spans[s].End-tr.spans[s].Start, tr.spans[s2].End-tr.spans[s2].Start
			for rep := 1; rep < verifyReps; rep++ {
				for _, verify := range []bool{true, false} {
					t0 := time.Now()
					if _, err := r.h.c.Search(ctx, e.queries, dimatch.WithVerify(verify)); err != nil {
						return err
					}
					if d := time.Since(t0).Nanoseconds(); verify {
						on = min(on, d)
					} else {
						off = min(off, d)
					}
				}
			}
			verifyUs = append(verifyUs, float64(on-off)/1e3)
		}
		got, err := rp.run(tr, i, e.queries)
		if err != nil {
			return err
		}
		if !sameAnswer(e.queries, got, out.PerQuery) {
			r.gate("traced pass: replay of entry %d ranks %v, the cluster %v", i, got, out.PerQuery)
		}
	}
	if err := tr.write(filepath.Join(r.cfg.outDir, w.name+".trace.json"), r.res.env); err != nil {
		return err
	}

	by := selfByName(tr.spans)
	for _, name := range []string{
		"core.encode", "index.probe_build", "index.plan", "tree.plan", "wire.query_encode", "wire.query_decode",
		"core.match", "wire.reply_encode", "wire.reply_decode", "core.aggregate", "core.rank",
	} {
		m[name+"_us"] = medianUs(by[name])
	}
	m["cluster.search_us"] = medianUs(by["cluster.search"])
	m["cluster.verify_us"] = median(verifyUs)

	// Per search, the slowest station's match alone and its whole
	// decode+match+encode chain: what a fan-out waits for.
	matchMax, chainMax := make(map[int]int64), make(map[int]int64)
	chain := make(map[int]int64) // by replay.station span
	for _, s := range tr.spans {
		switch s.Name {
		case "wire.query_decode", "core.match", "wire.reply_encode":
			d := s.End - s.Start
			chain[s.Parent] += d
			chainMax[s.Query] = max(chainMax[s.Query], chain[s.Parent])
			if s.Name == "core.match" {
				matchMax[s.Query] = max(matchMax[s.Query], d)
			}
		}
	}
	m["core.match_max_us"] = medianUs(matchMax)
	slowestChainUs := medianUs(chainMax)
	if rp.residents > 0 {
		m["core.match_ns_per_resident"] = float64(rp.matchNs) / float64(rp.residents)
	}

	if m["transport.tcp_rtt_us"], err = tcpRTT(ctx, r.ds.length); err != nil {
		return err
	}
	if m["transport.pipe_rtt_us"], err = pipeRTT(ctx, r.ds.length); err != nil {
		return err
	}
	searchUs := m["cluster.search_us"]
	if w.verify {
		searchUs = medianUs(by["cluster.search_noverify"])
	}
	m["cluster.unattributed_us"] = searchUs - m["core.encode_us"] - m["index.probe_build_us"] - m["index.plan_us"] -
		m["wire.query_encode_us"] - slowestChainUs - m["transport.tcp_rtt_us"] -
		m["wire.reply_decode_us"] - m["core.aggregate_us"] - m["core.rank_us"]

	params, err := core.SizedParams(w.opts.Params, r.ds.length, entries[0].queries, w.opts.TargetFP)
	if err != nil {
		return err
	}
	if m["hash.indexes_ns"], m["bloom.contains_ns"], m["placement.pick_ns"], err = primitiveCosts(params, r.ds.stationIDs); err != nil {
		return err
	}
	if w.wal {
		res := r.ds.copies[r.ds.stationIDs[0]]
		if m["wal.append_us"], m["wal.log_bytes_per_pattern"], m["wal.snapshot_ms"], err = walCosts(filepath.Join(scratch, "wal-layer"), res); err != nil {
			return err
		}
	}

	q := float64(total.queries)
	visited := float64(total.searches*len(r.ds.stationIDs) - total.cost.StationsPruned)
	m["cluster.stations_visited_per_query"] = visited / q
	m["cluster.stations_pruned_per_query"] = float64(total.cost.StationsPruned) / q
	m["cluster.reports_per_query"] = float64(total.cost.ReportsReceived) / q
	m["cluster.results_per_query"] = float64(total.results) / q
	if total.cost.ReportsReceived > 0 {
		m["core.report_yield"] = float64(total.results) / float64(total.cost.ReportsReceived)
	}
	m["index.probes_per_query"] = float64(total.cost.SubtreeProbes) / q
	m["cluster.summary_refreshes_per_query"] = float64(total.cost.SummaryRefreshes) / q
	m["cluster.summary_bytes_per_query"] = float64(total.cost.SummaryBytesDown+total.cost.SummaryBytesUp) / q
	m["core.filter_bytes_per_query"] = float64(total.cost.FilterBytes) / q
	m["wire.bytes_down_per_query"] = float64(total.cost.BytesDown) / q
	m["wire.bytes_up_per_query"] = float64(total.cost.BytesUp) / q
	m["cluster.routing_state_bytes"] = float64(r.h.c.RoutingState().TotalBytes())
	m["cluster.station_raw_bytes"] = float64(total.stationRaw)
	m["trace.overhead_pct"] = (median(clientMs)/median(total.latMs) - 1) * 100
	m["bench.datagen_s"] = datagen
	return nil
}

// ingestLayers fills the stream and WAL metrics that are known only after
// the pipeline is closed and the stations have stopped.
func (r *runner) ingestLayers(total *tally, st *dimatch.StreamStats, recoverMs float64, folds uint64) {
	m := r.res.metrics
	k := float64(st.Accepted) / 1e3
	m["stream.flushes_per_kpattern"] = float64(st.Flushes) / k
	m["stream.blocked_per_kpattern"] = float64(st.Blocked) / k
	m["stream.flush_failures"] = float64(st.FlushFailures)
	m["stream.ingest_pps"] = float64(total.patterns) / (total.submitS + total.flushS)
	m["stream.submit_us"] = total.submitS * 1e6 / float64(total.patterns)
	m["stream.flush_ms"] = total.flushS * 1e3 / float64(len(total.segs))
	m["wal.recover_ms"] = recoverMs
	m["wal.snapshot_folds"] = float64(folds)
}
