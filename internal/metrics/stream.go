package metrics

import "sync/atomic"

// StreamCounters is the live counter block of one streaming ingest
// pipeline. Every field is updated lock-free — by Submit callers, the
// flusher and the TTL evictor concurrently — and Snapshot reads a
// consistent-enough point-in-time view for health reporting (each counter
// is individually exact; cross-counter invariants such as
// Accepted+Shed+Rejected == Submitted hold exactly only once the pipeline
// is quiescent).
type StreamCounters struct {
	// Submitted counts every Submit call, whatever its outcome.
	Submitted atomic.Uint64
	// Accepted counts submissions admitted into the pipeline.
	Accepted atomic.Uint64
	// Shed counts submissions dropped by shed-mode admission control
	// (Submit returned ErrOverloaded). Always 0 in block mode.
	Shed atomic.Uint64
	// Rejected counts submissions refused before admission: length
	// mismatches, all-zero patterns, closed pipeline, cancelled contexts.
	Rejected atomic.Uint64
	// Blocked counts block-mode submissions that had to wait for queue
	// space before being accepted (they are also counted in Accepted).
	Blocked atomic.Uint64
	// Flushes counts the pipeline's Place calls, retries included;
	// FlushedPatterns counts the patterns they placed.
	Flushes         atomic.Uint64
	FlushedPatterns atomic.Uint64
	// FlushFailures counts accepted submissions abandoned after exhausting
	// their flush retry budget — the only way an accepted pattern is lost.
	FlushFailures atomic.Uint64
	// TTLEvictions counts persons evicted by the TTL deadline wheel.
	TTLEvictions atomic.Uint64
}

// Snapshot copies the counter block into a plain-value StreamStats.
func (c *StreamCounters) Snapshot() StreamStats {
	return StreamStats{
		Submitted:       c.Submitted.Load(),
		Accepted:        c.Accepted.Load(),
		Shed:            c.Shed.Load(),
		Rejected:        c.Rejected.Load(),
		Blocked:         c.Blocked.Load(),
		Flushes:         c.Flushes.Load(),
		FlushedPatterns: c.FlushedPatterns.Load(),
		FlushFailures:   c.FlushFailures.Load(),
		TTLEvictions:    c.TTLEvictions.Load(),
	}
}

// StreamStats is a point-in-time health snapshot of a streaming ingest
// pipeline: its admission, flush and eviction totals. It is what
// Ingestor.Report returns and what Cluster.Stats surfaces (summed across
// every registered pipeline) in its Stream field.
type StreamStats struct {
	Submitted       uint64 `json:"submitted"`
	Accepted        uint64 `json:"accepted"`
	Shed            uint64 `json:"shed"`
	Rejected        uint64 `json:"rejected"`
	Blocked         uint64 `json:"blocked"`
	Flushes         uint64 `json:"flushes"`
	FlushedPatterns uint64 `json:"flushed_patterns"`
	FlushFailures   uint64 `json:"flush_failures"`
	TTLEvictions    uint64 `json:"ttl_evictions"`
}

// MergeStreamStats sums several pipelines' snapshots into one. nil inputs
// are skipped; the result is nil when nothing contributed.
func MergeStreamStats(parts []*StreamStats) *StreamStats {
	var out *StreamStats
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out == nil {
			out = &StreamStats{}
		}
		out.Submitted += p.Submitted
		out.Accepted += p.Accepted
		out.Shed += p.Shed
		out.Rejected += p.Rejected
		out.Blocked += p.Blocked
		out.Flushes += p.Flushes
		out.FlushedPatterns += p.FlushedPatterns
		out.FlushFailures += p.FlushFailures
		out.TTLEvictions += p.TTLEvictions
	}
	return out
}
