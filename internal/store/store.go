// Package store holds a base station's residents and makes them durable:
// Residents (residents.go) is the one row-owning resident store the station
// serve loop, WAL replay and the in-memory backend all apply through, and
// Store is the pluggable persistence contract it is made durable through,
// with the in-memory default backend. A station appends every applied
// ingest/evict batch to its Store before acknowledging it, so an acknowledged
// mutation is exactly as durable as the backend promises — not at all for the
// in-memory backend, fsync-bounded for the snapshot+WAL backend in the wal
// subpackage.
//
// The contract is deliberately small. Recover replays the durable state into
// a full station image; Append records one applied batch; Snapshot replaces
// the durable state wholesale; Compact lets the backend fold its log into a
// fresh snapshot when its own thresholds say the log has grown past its
// keep. Stores are single-owner: the station serve loop is the only caller
// after construction, so implementations need no internal locking.
package store

import (
	"fmt"

	"dimatch/internal/core"
	"dimatch/internal/index"
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

// Batch is one applied station mutation, recorded after the station's apply
// rules already ran: an OpIngest batch holds only patterns that were
// actually inserted or replaced (never all-zero or foreign-length ones), an
// OpEvict batch only persons that were actually resident. Locals is parallel
// to Persons for OpIngest and nil for OpEvict.
type Batch struct {
	Op      Op
	Persons []core.PersonID
	Locals  []pattern.Pattern
}

// Image is a complete station state: the resident store in person-ascending
// order plus, optionally, the memoized routing digest covering exactly those
// residents. It is the exchange form between a station, its backend and
// tests — plain slices, either views of a Residents good until its next
// mutation (what Compact's callback returns) or an independent copy (what
// Recover returns). Digest is nil when the caller had none memoized —
// recovery then leaves the station to rebuild it lazily, which yields
// byte-identical results because index.Build is deterministic in the
// resident set.
type Image struct {
	Persons []core.PersonID
	Locals  []pattern.Pattern
	Digest  *index.Summary
}

// Residents returns the image's resident count.
func (img Image) Residents() int { return len(img.Persons) }

// Store is the station persistence contract.
//
// Implementations are not goroutine-safe: the owning station serve loop
// serializes all calls, mirroring how the resident store itself is owned.
type Store interface {
	// Recover replays the durable state into a station image the caller may
	// keep: nothing appended later shows through it. It is safe to call at
	// any point (not just startup); batches appended since the last snapshot
	// are folded in.
	Recover() (Image, error)

	// Append records one applied batch. The station calls it before sending
	// the mutation's ack, so a batch the center saw acknowledged is never
	// lost by a crash the backend's durability policy covers.
	Append(Batch) error

	// Snapshot replaces the durable state with the image, folding away any
	// appended log. The image is the caller's and may change once Snapshot
	// returns; a backend that keeps it copies it.
	Snapshot(Image) error

	// Compact takes a fresh snapshot when the backend's thresholds say the
	// appended log has grown past its keep, and reports whether it did. The
	// image callback is invoked only when folding actually happens, so
	// callers defer expensive work — the station builds its routing digest
	// inside it, which is what puts the memoized digest on disk.
	Compact(image func() (Image, error)) (bool, error)

	// Close releases the backend, flushing anything buffered.
	Close() error
}

// Fold accumulates batches into a Residents with exactly the station's apply
// semantics — they are Residents' own: all-zero and foreign-length ingest
// patterns are skipped, evicts of absent persons are ignored, and persons
// stay sorted ascending. WAL replay, snapshot decode and the in-memory
// backend share it, so every backend recovers precisely the state the
// station would have held.
type Fold struct {
	Residents
}

// Apply folds one batch in.
func (f *Fold) Apply(b Batch) error {
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

// Memory is the default backend: state lives in process memory only, so a
// station over it behaves exactly like a pre-persistence station — Recover
// after a process restart finds nothing. It exists so the store contract has
// one implementation with zero durability cost, and so contract tests can
// diff the WAL backend against a trivially correct reference.
type Memory struct {
	fold   Fold
	digest *index.Summary
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{} }

// Recover returns the folded state of everything applied so far.
func (m *Memory) Recover() (Image, error) {
	img := m.fold.Image()
	img.Digest = m.digest
	return img, nil
}

// Append folds the batch in. Any remembered digest no longer covers the
// store and is dropped.
func (m *Memory) Append(b Batch) error {
	m.digest = nil
	return m.fold.Apply(b)
}

// Snapshot replaces the state with the image.
func (m *Memory) Snapshot(img Image) error {
	if err := m.fold.Load(img); err != nil {
		return err
	}
	m.digest = img.Digest
	return nil
}

// Compact is a no-op: there is no log to fold.
func (m *Memory) Compact(func() (Image, error)) (bool, error) { return false, nil }

// Close is a no-op.
func (m *Memory) Close() error { return nil }
