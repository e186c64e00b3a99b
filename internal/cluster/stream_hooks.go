package cluster

// Hooks for the streaming ingest pipeline (internal/stream). The pipeline
// places its batches through Place like any caller; beyond that it needs
// only a membership check at start-up and a health-reporting slot in Stats.

import "dimatch/internal/metrics"

// AliveStationIDs returns the current epoch's non-dead member stations in
// ascending order: a streaming pipeline refuses to start over none.
func (c *Cluster) AliveStationIDs() []uint32 {
	ids, _ := c.aliveMembers()
	return append([]uint32(nil), ids...)
}

// RegisterStreamStats registers a health-snapshot provider — typically one
// streaming Ingestor's Report — to be merged into Cluster.Stats' Stream
// field. Multiple pipelines may register; their totals sum. The returned
// cancel function unregisters the provider and is idempotent.
func (c *Cluster) RegisterStreamStats(fn func() *metrics.StreamStats) (cancel func()) {
	c.hookMu.Lock()
	if c.streamStats == nil {
		c.streamStats = make(map[uint64]func() *metrics.StreamStats)
	}
	c.hookSeq++
	id := c.hookSeq
	c.streamStats[id] = fn
	c.hookMu.Unlock()
	return func() {
		c.hookMu.Lock()
		delete(c.streamStats, id)
		c.hookMu.Unlock()
	}
}

// streamHealth merges every registered pipeline's snapshot. Returns nil
// when no pipeline is registered.
func (c *Cluster) streamHealth() *metrics.StreamStats {
	c.hookMu.Lock()
	fns := make([]func() *metrics.StreamStats, 0, len(c.streamStats))
	for _, fn := range c.streamStats {
		fns = append(fns, fn)
	}
	c.hookMu.Unlock()
	parts := make([]*metrics.StreamStats, len(fns))
	for i, fn := range fns {
		parts[i] = fn()
	}
	return metrics.MergeStreamStats(parts)
}
