package dimatch

import (
	"context"
	"fmt"

	"dimatch/internal/wire"
)

// StationStats is one station's resident data, as reported by the station
// itself over the wire.
type StationStats struct {
	// Station is the member's ID in the cluster's membership, the station
	// whose exchange carried the figures; a reply names no station.
	Station uint32
	// Residents is the number of local patterns the station holds.
	Residents int
	// StorageBytes is the raw bytes those patterns occupy at the paper's 8
	// per value, the storage every strategy is charged; the station's int32
	// store holds about half.
	StorageBytes uint64
	// PatternLength is the time-series length the station serves (0 when it
	// holds no patterns).
	PatternLength int
}

// stationStats converts member id's stats reply into the snapshot's entry.
func stationStats(id uint32, sr wire.StatsReply) StationStats {
	return StationStats{
		Station:       id,
		Residents:     int(sr.Residents),
		StorageBytes:  sr.StorageBytes,
		PatternLength: int(sr.Length),
	}
}

// ClusterStats is a cluster-wide storage snapshot of the figures the stations
// report about themselves over the wire: each member's answer to its join
// handshake, replaced by its answer to every ingest or evict since. Stations
// appear in ascending-ID order; a member whose link is down is counted in
// StationsFailed and omitted from Stations.
type ClusterStats struct {
	// Epoch is the membership epoch the snapshot belongs to; it advances
	// when the member set changes (a join or a removal).
	Epoch uint64
	// Stations holds the per-station figures, ascending by station ID.
	Stations []StationStats
	// StationsFailed counts the members whose link is down, killed or lost.
	StationsFailed int
}

// TotalResidents sums the resident counts across reporting stations.
func (s *ClusterStats) TotalResidents() int {
	n := 0
	for _, st := range s.Stations {
		n += st.Residents
	}
	return n
}

// TotalStorageBytes sums the raw pattern storage across reporting stations.
func (s *ClusterStats) TotalStorageBytes() uint64 {
	var n uint64
	for _, st := range s.Stations {
		n += st.StorageBytes
	}
	return n
}

// Stats reports every member station's resident count and storage bytes,
// as the stations last reported them (see ClusterStats); it sends no
// frame. It fails with ErrCancelled when ctx is already done, and with
// ErrClusterClosed after Shutdown.
func (c *Cluster) Stats(ctx context.Context) (*ClusterStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	c.mu.Lock()
	ep, closed := c.ep, c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClusterClosed
	}
	return c.stats(ep), nil
}

// stats reads the figures of ep's members from the table.
func (c *Cluster) stats(ep *epoch) *ClusterStats {
	st := &ClusterStats{Epoch: ep.version, Stations: make([]StationStats, 0, len(ep.ids))}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, id := range ep.ids {
		sr, ok := c.figures[id]
		switch {
		case !ep.up(i):
			st.StationsFailed++
		case ok:
			st.Stations = append(st.Stations, stationStats(id, sr))
		}
	}
	return st
}
