package cluster

import (
	"context"

	"dimatch/internal/metrics"
	"dimatch/internal/wire"
)

// StationStats is one station's resident data, as reported by the station
// itself over the wire.
type StationStats struct {
	// Station is the reporting station's ID.
	Station uint32
	// Residents is the number of local patterns the station holds.
	Residents int
	// StorageBytes is the raw bytes those patterns occupy (8 per value).
	StorageBytes uint64
	// PatternLength is the time-series length the station serves (0 when it
	// holds no patterns).
	PatternLength int
}

// stationStats converts one stats reply into the snapshot's entry.
func stationStats(sr wire.StatsReply) StationStats {
	return StationStats{
		Station:       sr.Station,
		Residents:     int(sr.Residents),
		StorageBytes:  sr.StorageBytes,
		PatternLength: int(sr.Length),
	}
}

// Stats is a cluster-wide storage snapshot fetched from the stations over
// the wire (one KindStats exchange per station, cached per membership
// epoch). Stations appear in ascending-ID order; a station that failed the
// exchange is counted in StationsFailed and omitted from Stations.
type Stats struct {
	// Epoch is the membership epoch the snapshot belongs to; it advances on
	// every mutation (ingest, evict, add/remove station, failure injection).
	Epoch uint64
	// Stations holds the per-station figures, ascending by station ID.
	Stations []StationStats
	// StationsFailed counts stations that did not answer the exchange.
	StationsFailed int
	// Stream is the merged health snapshot of every streaming ingest
	// pipeline currently registered on the cluster (see
	// RegisterStreamStats): admission, flush and eviction totals. Unlike the
	// storage figures above it is not epoch-cached — every Stats call reads
	// the pipelines live — and it is nil when no pipeline is attached.
	Stream *metrics.StreamStats
}

// TotalResidents sums the resident counts across reporting stations.
func (s *Stats) TotalResidents() int {
	n := 0
	for _, st := range s.Stations {
		n += st.Residents
	}
	return n
}

// TotalStorageBytes sums the raw pattern storage across reporting stations.
func (s *Stats) TotalStorageBytes() uint64 {
	var n uint64
	for _, st := range s.Stations {
		n += st.StorageBytes
	}
	return n
}

// cachedStats returns the epoch's stats snapshot, or nil before the first
// successful fetch.
func (ep *epoch) cachedStats() *Stats {
	ep.statsMu.Lock()
	defer ep.statsMu.Unlock()
	return ep.stats
}

// seedStats pre-fills the epoch's cache from a predecessor epoch's snapshot
// with one station's entry replaced (or inserted, keeping ascending order)
// by a fresh reply. A fetch that already won the race is left in place.
func (ep *epoch) seedStats(prev *Stats, fresh wire.StatsReply) {
	entry := stationStats(fresh)
	stations := make([]StationStats, 0, len(prev.Stations)+1)
	inserted := false
	for _, s := range prev.Stations {
		if s.Station == fresh.Station {
			continue
		}
		if !inserted && s.Station > fresh.Station {
			stations = append(stations, entry)
			inserted = true
		}
		stations = append(stations, s)
	}
	if !inserted {
		stations = append(stations, entry)
	}
	st := &Stats{Epoch: ep.version, Stations: stations}
	if missing := len(ep.ids) - len(stations); missing > 0 {
		st.StationsFailed = missing
	}
	ep.statsMu.Lock()
	if ep.stats == nil {
		ep.stats = st
	}
	ep.statsMu.Unlock()
}

// Stats fetches every member station's resident count and storage bytes
// over the wire (KindStats). The result is cached on the membership epoch:
// repeated calls between mutations answer from the cache, and any mutation
// installs a fresh epoch whose first Stats refetches. Stations that fail
// the exchange are counted, not fatal.
func (c *Cluster) Stats(ctx context.Context) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ep, err := c.pinEpoch()
	if err != nil {
		return nil, err
	}
	st, err := c.epochStats(ctx, ep)
	if err != nil {
		return nil, err
	}
	// Hand out a copy: the cached snapshot is shared with concurrent
	// callers and with the per-search StationRawBytes tally. Stream health
	// is attached per call — pipelines mutate continuously, so caching it
	// on the epoch would freeze their counters between mutations.
	return &Stats{
		Epoch:          st.Epoch,
		Stations:       append([]StationStats(nil), st.Stations...),
		StationsFailed: st.StationsFailed,
		Stream:         c.streamHealth(),
	}, nil
}

// epochStats returns the epoch's cached stats, fetching them on first use.
// Concurrent first uses may fetch redundantly; all converge on one cached
// snapshot. Only a successful fetch is cached, so a cancelled caller does
// not poison the epoch.
func (c *Cluster) epochStats(ctx context.Context, ep *epoch) (*Stats, error) {
	ep.statsMu.Lock()
	if st := ep.stats; st != nil {
		ep.statsMu.Unlock()
		return st, nil
	}
	ep.statsMu.Unlock()

	st := &Stats{Epoch: ep.version}
	// Stats traffic is cluster bookkeeping: it crosses the shared link
	// meters but is billed to no search's CostReport.
	failed, err := c.fanOut(ctx, ep, wire.StatsMessage(), nil, func(reply wire.Message) error {
		sr, err := wire.DecodeStatsReply(reply)
		if err != nil {
			return err
		}
		st.Stations = append(st.Stations, stationStats(sr))
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.StationsFailed = len(failed)

	ep.statsMu.Lock()
	if ep.stats == nil {
		ep.stats = st
	} else {
		st = ep.stats
	}
	ep.statsMu.Unlock()
	return st, nil
}
