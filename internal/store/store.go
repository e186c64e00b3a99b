// Package store holds a base station's residents and makes them durable:
// Residents (residents.go) is the one row-owning resident store the station
// serve loop, WAL replay and the in-memory backend all apply through, and
// Store is the pluggable persistence contract it is made durable through,
// with the in-memory default backend. A station appends every applied
// ingest/evict batch to its Store before acknowledging it, so an acknowledged
// mutation is exactly as durable as the backend promises — not at all for the
// in-memory backend, fsynced before the ack for the snapshot+WAL backend in
// the wal subpackage.
//
// The contract is the four calls a station makes. RecoverCells replays the
// durable state into a full station image; AppendCells records one applied
// batch; Compact lets the backend fold its log into a fresh snapshot when
// its own thresholds say the log has grown past its keep; Close releases
// it. Every method speaks the station's int32
// cells, so a station never widens its store to talk to its backend. Stores
// are single-owner: the station serve loop is the only caller after
// construction, so implementations need no internal locking.
package store

import (
	"fmt"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// Op tags one durable batch with the mutation it records.
type Op uint8

const (
	// OpIngest inserts or replaces resident patterns.
	OpIngest Op = 1
	// OpEvict removes residents by person ID.
	OpEvict Op = 2
)

// String names the op for errors and logs.
func (o Op) String() string {
	switch o {
	case OpIngest:
		return "ingest"
	case OpEvict:
		return "evict"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// BatchOf is one applied station mutation in rows R, recorded after the station's apply
// rules already ran: an OpIngest batch holds only patterns that were
// actually inserted or replaced (never all-zero or foreign-length ones), an
// OpEvict batch only persons that were actually resident. Locals is parallel
// to Persons for OpIngest and nil for OpEvict.
//
// Payload, when set on an OpIngest batch, is the wire ingest payload the
// rows were decoded from, and decoding it yields exactly Persons and Locals:
// the station sets it only when it applied every row it received. A backend
// that records ingest batches as wire payloads may write it verbatim instead
// of encoding the rows again; every other backend ignores it.
type BatchOf[R pattern.Row[C], C pattern.Cell] struct {
	Op      Op
	Persons []core.PersonID
	Locals  []R
	Payload []byte
}

// Batch is a batch in Pattern rows, the form tests and tools append.
type Batch = BatchOf[pattern.Pattern, int64]

// CellBatch is a batch in a station's int32 rows, the form it persists.
type CellBatch = BatchOf[[]int32, int32]

// ImageOf is a complete station state in rows R: the resident store in
// person-ascending order. It is the exchange form between a station, its
// backend and tests — plain slices, either views of a store good until its
// next mutation (what the station hands Compact) or an independent copy
// (what a recovery returns). Nothing derived from the residents is part of
// it: the station rebuilds its routing digest from them, byte-identically,
// because index.Build is deterministic in the resident set.
type ImageOf[R pattern.Row[C], C pattern.Cell] struct {
	Persons []core.PersonID
	Locals  []R
}

// Image is an image in Pattern rows, the form tests and tools read and
// write.
type Image = ImageOf[pattern.Pattern, int64]

// CellImage is an image in a station's int32 rows.
type CellImage = ImageOf[[]int32, int32]

// Store is the station persistence contract.
//
// Implementations are not goroutine-safe: the owning station serve loop
// serializes all calls, mirroring how the resident store itself is owned.
type Store interface {
	// RecoverCells replays the durable state into a station image the
	// caller may keep: nothing appended later shows through it. It is safe
	// to call at any point (not just startup); batches appended since the
	// last snapshot are folded in.
	RecoverCells() (CellImage, error)

	// AppendCells records one applied batch. The station calls it before
	// sending the mutation's ack, so a batch the center saw acknowledged is
	// exactly as durable as the backend.
	AppendCells(CellBatch) error

	// Compact snapshots the image when the backend's thresholds say the
	// appended log has grown past its keep, folding that log away, and
	// reports whether it did. The image is the caller's current state and
	// may change once Compact returns; a backend that keeps it copies it.
	Compact(CellImage) (bool, error)

	// Close releases the backend, flushing anything buffered.
	Close() error
}

// FoldOf accumulates batches of rows R into a store with exactly the
// station's apply semantics — they are the store's own: all-zero and
// foreign-length ingest patterns are skipped, evicts of absent persons are
// ignored, and persons stay sorted ascending. WAL replay, snapshot decode
// and the in-memory backend share it, so every backend recovers precisely
// the state the station would have held.
type FoldOf[R pattern.Row[C], C pattern.Cell] struct {
	ResidentsOf[R, C]
}

// Fold is a fold into a station's int32 store.
type Fold = FoldOf[[]int32, int32]

// Apply folds one batch in.
func (f *FoldOf[R, C]) Apply(b BatchOf[R, C]) error {
	switch b.Op {
	case OpIngest:
		if len(b.Persons) != len(b.Locals) {
			return fmt.Errorf("store: ingest batch with %d persons but %d locals", len(b.Persons), len(b.Locals))
		}
		for i, p := range b.Persons {
			f.Upsert(p, b.Locals[i])
		}
	case OpEvict:
		for _, p := range b.Persons {
			f.Evict(p)
		}
	default:
		return fmt.Errorf("store: unknown batch op %v", b.Op)
	}
	return nil
}

// ApplyDecoded is Apply for a batch decoded for this call alone — a WAL
// record, a snapshot chunk — which the fold may keep: an ingest batch that
// lands after every resident is taken as it is (Residents.AdoptRows), so
// replaying a bulk-loaded log copies no row.
func (f *FoldOf[R, C]) ApplyDecoded(b BatchOf[R, C]) error {
	if b.Op == OpIngest && f.AdoptRows(b.Persons, b.Locals) {
		return nil
	}
	return f.Apply(b)
}

// Memory is the default backend: state lives in process memory only, so a
// station over it behaves exactly like a pre-persistence station — Recover
// after a process restart finds nothing. It exists so the store contract has
// one implementation with zero durability cost, and so contract tests can
// diff the WAL backend against a trivially correct reference.
type Memory struct {
	fold Fold
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{} }

// RecoverCells returns the folded state of everything applied so far.
func (m *Memory) RecoverCells() (CellImage, error) { return m.fold.Image(), nil }

// AppendCells folds the batch in.
func (m *Memory) AppendCells(b CellBatch) error { return m.fold.Apply(b) }

// SnapshotCells replaces the state with the image: the reference for the
// WAL backend's own SnapshotCells in the contract tests.
func (m *Memory) SnapshotCells(img CellImage) error { return m.fold.Load(img) }

// Compact is a no-op: there is no log to fold.
func (m *Memory) Compact(CellImage) (bool, error) { return false, nil }

// Close is a no-op.
func (m *Memory) Close() error { return nil }
