package dimatch

import (
	"dimatch/internal/store"
	"dimatch/internal/store/wal"
)

// Station-persistence vocabulary: the pluggable store a base station makes
// its resident set durable through. A station appends every applied
// ingest/evict batch to its Store before acknowledging it, so an acked
// mutation is exactly as durable as the backend promises. A Member with a
// nil Store keeps its residents in memory only; the snapshot+WAL backend
// fsyncs every batch before the ack and stores nothing but the acked
// batches.
type (
	// Store is the station persistence contract: the four calls a station
	// makes (recover / append / compact / close). Implementations are
	// single-owner: the station serve loop is the only caller after
	// construction.
	Store = store.Store
	// WALOptions sets the snapshot+WAL backend's compaction thresholds
	// (SnapshotEvery records or SnapshotBytes log bytes); the zero value
	// means the defaults. Durability is not an option: every append is
	// fsynced before the station acks it.
	WALOptions = wal.Options
)

// OpenWALStore opens (or creates) a snapshot+WAL station store rooted at
// dir. Reopening a directory a previous station wrote — even one whose
// process was killed mid-append — recovers every acknowledged batch; a torn
// tail from the crash is truncated away.
func OpenWALStore(dir string, opts WALOptions) (Store, error) { return wal.Open(dir, opts) }

// ServeStoredStation runs a base station over an established link until the
// center sends a shutdown or the link closes — the body of a remote station
// process started with di-cluster -role station -store wal. The station
// recovers from st first and owns it from then on, closing it when the loop
// exits; a nil st keeps the residents in memory only.
func ServeStoredStation(id uint32, locals map[PersonID]Pattern, link Link, st Store) error {
	s, err := newStation(id, locals, link, st)
	if err != nil {
		return err
	}
	return s.Serve()
}
