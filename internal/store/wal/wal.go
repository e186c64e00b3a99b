// Package wal implements the snapshot + write-ahead-log station store: every
// applied batch is appended to a CRC-framed log before the station acks it,
// and the log is periodically folded into an atomic snapshot so recovery
// replays a bounded tail instead of the station's whole history.
//
// On-disk layout (one directory per station):
//
//	wal-<seq>.log    the active log generation: framed batch records
//	snap-<seq>.snap  the snapshot the generation starts from (absent at seq 0)
//
// A snapshot is written to a temp file, fsynced and atomically renamed into
// place before the next log generation is created and the old generation
// removed — so at every crash point the directory holds one recoverable
// state, and recovery is "load highest snapshot, replay its log". A torn or
// corrupt log tail is detected by the per-record CRC and cleanly truncated:
// recovery yields a prefix of the applied batches, never a partial batch.
//
// Durability is tunable (Options): SyncEvery=1 (the default) fsyncs every
// append, so an acked batch survives kill -9 and power loss; SyncInterval
// trades a bounded window of acked-but-unsynced batches for throughput.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dimatch/internal/index"
	"dimatch/internal/store"
	"dimatch/internal/wire"
)

// Options tunes durability and compaction. The zero value is the safe
// default: fsync every append, fold the log every 4096 records or 16 MiB.
type Options struct {
	// SyncEvery fsyncs the log after every Nth appended batch. 1 (the
	// default when SyncInterval is also unset) makes every acked batch
	// durable before the ack leaves the station.
	SyncEvery int

	// SyncInterval, when SyncEvery is 0, bounds how long an acked batch may
	// sit unsynced: an append fsyncs once this much time has passed since
	// the last sync. A crash inside the window loses at most the batches
	// acked since that sync — never a partial batch, and never anything a
	// completed Snapshot covered.
	SyncInterval time.Duration

	// SnapshotEvery folds the log into a fresh snapshot once it holds this
	// many records (default 4096; negative disables the record trigger).
	SnapshotEvery int

	// SnapshotBytes folds once the log file exceeds this size (default
	// 16 MiB; negative disables the size trigger).
	SnapshotBytes int64
}

func (o Options) withDefaults() Options {
	if o.SyncEvery == 0 && o.SyncInterval <= 0 {
		o.SyncEvery = 1
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = 16 << 20
	}
	return o
}

// Store is the snapshot+WAL backend. It implements store.Store and, like
// every backend, is single-owner: the station serve loop serializes calls.
type Store struct {
	dir  string
	opts Options

	seq        uint64   // current generation
	log        *os.File // active log, positioned at its end
	logBytes   int64
	logRecords int

	unsynced int
	lastSync time.Time

	torn int64 // torn-tail bytes truncated at Open
}

var _ store.Store = (*Store)(nil)

// Open opens (or initializes) a station's persistence directory, truncating
// any torn log tail left by a crash. Call Recover for the replayed state.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), lastSync: time.Now()}
	if err := s.boot(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) logPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%016x.log", seq))
}

func (s *Store) snapPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%016x.snap", seq))
}

// parseSeq extracts the generation from a store file name, reporting whether
// the name matches prefix-<16 hex>-suffix.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// boot scans the directory, picks the newest generation, sweeps crash debris
// (temp files, superseded generations) and opens the log for append with any
// torn tail truncated.
func (s *Store) boot() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	snaps := map[uint64]bool{}
	logs := map[uint64]bool{}
	gen := uint64(0)
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A snapshot that never reached its rename: dead weight.
			_ = os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
			snaps[seq] = true
			if seq > gen {
				gen = seq
			}
		}
		if seq, ok := parseSeq(name, "wal-", ".log"); ok {
			logs[seq] = true
			if seq > gen {
				gen = seq
			}
		}
	}
	// Rotation creates wal-N only after snap-N is durable, so a log at a
	// non-zero generation without its snapshot means the base state is gone.
	if logs[gen] && gen > 0 && !snaps[gen] {
		return fmt.Errorf("%w: generation %d log without its snapshot", ErrBadSnapshot, gen)
	}
	// Sweep superseded generations a crash between rotation and cleanup left
	// behind: the newest snapshot folds them in entirely.
	for seq := range snaps {
		if seq != gen {
			_ = os.Remove(s.snapPath(seq))
		}
	}
	for seq := range logs {
		if seq != gen {
			_ = os.Remove(s.logPath(seq))
		}
	}
	s.seq = gen

	f, err := os.OpenFile(s.logPath(gen), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	data, err := os.ReadFile(s.logPath(gen))
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	good, records := scanLog(data)
	if good < int64(len(data)) {
		s.torn = int64(len(data)) - good
		if err := f.Truncate(good); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	s.log = f
	s.logBytes = good
	s.logRecords = records
	return nil
}

// scanLog walks framed records from the front and returns the byte length of
// the longest well-framed prefix plus its record count. Anything after the
// first framing error is a torn tail. Framing (length + CRC over kind+body)
// is the whole integrity check: a torn or corrupted write cannot survive the
// CRC, so bodies are decoded once, at replay, not here.
func scanLog(data []byte) (good int64, records int) {
	off := 0
	for off < len(data) {
		_, _, n, err := readRecord(data[off:])
		if err != nil {
			break
		}
		off += n
		records++
	}
	return int64(off), records
}

// encodeBatch maps a store batch to its record kind and wire payload body.
func encodeBatch(b store.Batch) (byte, []byte, error) {
	switch b.Op {
	case store.OpIngest:
		body, err := wire.EncodeIngestPayload(wire.Ingest{Persons: b.Persons, Locals: b.Locals})
		if err != nil {
			return 0, nil, fmt.Errorf("wal: %w", err)
		}
		return recIngest, body, nil
	case store.OpEvict:
		return recEvict, wire.EncodeEvictPayload(wire.Evict{Persons: b.Persons}), nil
	default:
		return 0, nil, fmt.Errorf("%w: batch op %v", ErrBadKind, b.Op)
	}
}

// decodeBatch maps a log record back to the batch it recorded.
func decodeBatch(kind byte, body []byte) (store.Batch, error) {
	switch kind {
	case recIngest:
		in, err := wire.DecodeIngestPayload(body)
		if err != nil {
			return store.Batch{}, fmt.Errorf("wal: ingest record: %w", err)
		}
		return store.Batch{Op: store.OpIngest, Persons: in.Persons, Locals: in.Locals}, nil
	case recEvict:
		ev, err := wire.DecodeEvictPayload(body)
		if err != nil {
			return store.Batch{}, fmt.Errorf("wal: evict record: %w", err)
		}
		return store.Batch{Op: store.OpEvict, Persons: ev.Persons}, nil
	default:
		return store.Batch{}, fmt.Errorf("%w: 0x%02x", ErrBadKind, kind)
	}
}

// Recover replays the durable state: the generation's snapshot (if any) plus
// every replayable log record. The snapshot's digest is returned only when
// zero log records followed it — a digest does not cover later mutations,
// and the station rebuilds an identical one lazily from the residents.
func (s *Store) Recover() (store.Image, error) {
	var fold store.Fold
	var digest *index.Summary
	snap, err := os.ReadFile(s.snapPath(s.seq))
	switch {
	case err == nil:
		img, derr := decodeSnapshot(snap)
		if derr != nil {
			return store.Image{}, derr
		}
		// The decoder's own fold produced the image, so its invariants hold
		// and the slices can be adopted without the Load re-validation pass.
		fold.Adopt(img)
		digest = img.Digest
	case os.IsNotExist(err):
		// Generation 0 never has a snapshot: recovery starts empty.
	default:
		return store.Image{}, fmt.Errorf("wal: %w", err)
	}

	data, err := os.ReadFile(s.logPath(s.seq))
	if err != nil {
		return store.Image{}, fmt.Errorf("wal: %w", err)
	}
	off, replayed := 0, 0
	for off < len(data) {
		kind, body, n, err := readRecord(data[off:])
		if err != nil {
			break // boot truncated the tail; records appended since are whole
		}
		batch, err := decodeBatch(kind, body)
		if err != nil {
			break
		}
		if err := fold.Apply(batch); err != nil {
			return store.Image{}, err
		}
		off += n
		replayed++
	}
	img := fold.Take()
	if replayed == 0 {
		img.Digest = digest
	}
	return img, nil
}

// Append frames one applied batch onto the log and syncs per the configured
// policy. The station calls it before acking, so an Append error is fatal to
// the serve loop — the center never sees an ack for a batch that was not
// made as durable as the policy promises.
func (s *Store) Append(b store.Batch) error {
	kind, body, err := encodeBatch(b)
	if err != nil {
		return err
	}
	// Header and body go out as two writes: staging them in one buffer would
	// keep a second copy of the largest batch ever appended alive per station.
	// A crash between the two leaves a torn tail like any other.
	hdr := recordHeader(kind, body)
	if _, err := s.log.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := s.log.Write(body); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	s.logBytes += int64(len(hdr) + len(body))
	s.logRecords++
	s.unsynced++
	return s.maybeSync()
}

func (s *Store) maybeSync() error {
	if s.opts.SyncEvery > 0 {
		if s.unsynced < s.opts.SyncEvery {
			return nil
		}
	} else if time.Since(s.lastSync) < s.opts.SyncInterval {
		return nil
	}
	return s.syncLog()
}

func (s *Store) syncLog() error {
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	s.unsynced = 0
	s.lastSync = time.Now()
	return nil
}

// Snapshot folds the image into a fresh generation: temp-write + fsync +
// atomic rename for the snapshot, then a new empty log, then the old
// generation is removed. A crash at any point leaves either the old
// generation intact or the new snapshot complete — never a half state. A
// Snapshot error leaves the store unusable for further appends (the station
// treats it as fatal), because the generation bookkeeping may be mid-flight.
func (s *Store) Snapshot(img store.Image) error {
	next := s.seq + 1
	data, err := encodeSnapshot(img)
	if err != nil {
		return err
	}
	tmp := s.snapPath(next) + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.snapPath(next)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	nf, err := os.OpenFile(s.logPath(next), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		_ = nf.Close()
		return err
	}
	old, oldSeq := s.log, s.seq
	s.log = nf
	s.seq = next
	s.logBytes, s.logRecords, s.unsynced = 0, 0, 0
	_ = old.Close()
	_ = os.Remove(s.logPath(oldSeq))
	_ = os.Remove(s.snapPath(oldSeq)) // absent at generation 0; best-effort either way
	return syncDir(s.dir)
}

// Compact folds the log into a fresh snapshot once it exceeds the configured
// record or byte threshold. The image callback runs only when folding
// happens, so the station can defer building its digest to it.
func (s *Store) Compact(image func() (store.Image, error)) (bool, error) {
	byRecords := s.opts.SnapshotEvery > 0 && s.logRecords >= s.opts.SnapshotEvery
	byBytes := s.opts.SnapshotBytes > 0 && s.logBytes >= s.opts.SnapshotBytes
	if !byRecords && !byBytes {
		return false, nil
	}
	img, err := image()
	if err != nil {
		return false, err
	}
	if err := s.Snapshot(img); err != nil {
		return false, err
	}
	return true, nil
}

// Close syncs and releases the log. Idempotent.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	err := s.syncLog()
	if cerr := s.log.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	s.log = nil
	return err
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Generation returns the current snapshot/log generation.
func (s *Store) Generation() uint64 { return s.seq }

// TornBytes reports how many trailing log bytes Open discarded as a torn
// tail — zero after a clean shutdown.
func (s *Store) TornBytes() int64 { return s.torn }

// LogRecords reports how many batch records the active log holds.
func (s *Store) LogRecords() int { return s.logRecords }

// SnapshotBytes reports the current generation's snapshot size on disk,
// zero at generation 0 (no snapshot yet).
func (s *Store) SnapshotBytes() int64 {
	if s.seq == 0 {
		return 0
	}
	fi, err := os.Stat(s.snapPath(s.seq))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("wal: %w", werr)
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("wal: sync dir: %w", serr)
	}
	return nil
}
