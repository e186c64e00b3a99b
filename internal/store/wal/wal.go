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
// Every append is fsynced before it returns, so an acked batch survives
// kill -9 and power loss. The store holds the acked batches and nothing
// derived from them.
package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/wire"
)

// Options tunes compaction. The zero value folds the log every 4096 records
// or 16 MiB.
type Options struct {
	// SnapshotEvery folds the log into a fresh snapshot once it holds this
	// many records (default 4096; negative disables the record trigger).
	SnapshotEvery int

	// SnapshotBytes folds once the log file exceeds this size (default
	// 16 MiB; negative disables the size trigger).
	SnapshotBytes int64
}

func (o Options) withDefaults() Options {
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
// Beside the contract's int32 methods it reads and writes Pattern rows
// (Recover, Append, Snapshot) for tools and tests: the same code, the same
// bytes.
type Store struct {
	dir  string
	opts Options

	seq        uint64   // current generation
	log        *os.File // active log, positioned at its end
	logBytes   int64
	logRecords int

	torn int64 // torn-tail bytes truncated at Open
}

var _ store.Store = (*Store)(nil)

// Open opens (or initializes) a station's persistence directory, truncating
// any torn log tail left by a crash. Call Recover for the replayed state.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{dir: dir, opts: opts.withDefaults()}
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
// An ingest batch that carries the payload it was decoded from is logged as
// those bytes, unencoded; only a partly applied batch is encoded again.
func encodeBatch[R pattern.Row[C], C pattern.Cell](b store.BatchOf[R, C]) (byte, []byte, error) {
	switch b.Op {
	case store.OpIngest:
		if b.Payload != nil {
			return recIngest, b.Payload, nil
		}
		body, err := wire.EncodeRows(nil, b.Persons, b.Locals, nil, 0, nil)
		if err != nil {
			return 0, nil, fmt.Errorf("wal: %w", err)
		}
		return recIngest, body, nil
	case store.OpEvict:
		return recEvict, wire.EncodePersons(b.Persons), nil
	default:
		return 0, nil, fmt.Errorf("%w: batch op %v", ErrBadKind, b.Op)
	}
}

// decodeBatch maps a log record back to the batch it recorded.
func decodeBatch[R pattern.Row[C], C pattern.Cell](kind byte, body []byte) (store.BatchOf[R, C], error) {
	switch kind {
	case recIngest:
		persons, locals, err := wire.DecodeRows[R](body)
		if err != nil {
			return store.BatchOf[R, C]{}, fmt.Errorf("wal: ingest record: %w", err)
		}
		return store.BatchOf[R, C]{Op: store.OpIngest, Persons: persons, Locals: locals}, nil
	case recEvict:
		persons, err := wire.DecodePersons(body)
		if err != nil {
			return store.BatchOf[R, C]{}, fmt.Errorf("wal: evict record: %w", err)
		}
		return store.BatchOf[R, C]{Op: store.OpEvict, Persons: persons}, nil
	default:
		return store.BatchOf[R, C]{}, fmt.Errorf("%w: 0x%02x", ErrBadKind, kind)
	}
}

// RecoverCells replays the durable state into a station's int32 rows; see
// recoverImage.
func (s *Store) RecoverCells() (store.CellImage, error) { return recoverImage[[]int32](s) }

// Recover is RecoverCells into Pattern rows.
func (s *Store) Recover() (store.Image, error) { return recoverImage[pattern.Pattern](s) }

// recoverImage replays the durable state: the generation's snapshot (if
// any) plus every log record. Open truncated the torn tail, so every record
// left is one the station acked; one that does not decode fails recovery
// with a typed error rather than hiding the batches after it.
func recoverImage[R pattern.Row[C], C pattern.Cell](s *Store) (store.ImageOf[R, C], error) {
	var fold store.FoldOf[R, C]
	snap, err := os.ReadFile(s.snapPath(s.seq))
	switch {
	case err == nil:
		img, derr := decodeSnapshot[R](snap)
		if derr != nil {
			return store.ImageOf[R, C]{}, derr
		}
		// The decoder's own fold produced the image, so its invariants hold
		// and the slices can be adopted without the Load re-validation pass.
		fold.Adopt(img)
	case os.IsNotExist(err):
		// Generation 0 never has a snapshot: recovery starts empty.
	default:
		return store.ImageOf[R, C]{}, fmt.Errorf("wal: %w", err)
	}

	data, err := os.ReadFile(s.logPath(s.seq))
	if err != nil {
		return store.ImageOf[R, C]{}, fmt.Errorf("wal: %w", err)
	}
	for off := 0; off < len(data); {
		kind, body, n, err := readRecord(data[off:])
		if err != nil {
			return store.ImageOf[R, C]{}, fmt.Errorf("%w at log byte %d", err, off)
		}
		batch, err := decodeBatch[R](kind, body)
		if err != nil {
			return store.ImageOf[R, C]{}, fmt.Errorf("%w at log byte %d", err, off)
		}
		if err := fold.ApplyDecoded(batch); err != nil {
			return store.ImageOf[R, C]{}, err
		}
		off += n
	}
	return fold.Take(), nil
}

// AppendCells frames one applied batch onto the log and fsyncs it. The
// station calls it before acking, so an error is fatal to the serve loop —
// the center never sees an ack for a batch that is not on disk.
func (s *Store) AppendCells(b store.CellBatch) error { return appendBatch(s, b) }

// Append is AppendCells for a batch of Pattern rows: the same record bytes.
func (s *Store) Append(b store.Batch) error { return appendBatch(s, b) }

// appendBatch is AppendCells over rows R.
func appendBatch[R pattern.Row[C], C pattern.Cell](s *Store, b store.BatchOf[R, C]) error {
	kind, body, err := encodeBatch(b)
	if err != nil {
		return err
	}
	// Staging header and body in one buffer would keep a second copy of the
	// largest batch ever appended alive per station; writeRecord does not.
	if err := writeRecord(s.log, kind, body); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	s.logBytes += int64(headerSize + 1 + len(body))
	s.logRecords++
	return s.syncLog()
}

func (s *Store) syncLog() error {
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// SnapshotCells folds the image into a fresh generation; see
// snapshotImage.
func (s *Store) SnapshotCells(img store.CellImage) error { return snapshotImage(s, img) }

// Snapshot is SnapshotCells for an image of Pattern rows: the same file
// bytes.
func (s *Store) Snapshot(img store.Image) error { return snapshotImage(s, img) }

// snapshotImage folds the image into a fresh generation: temp-write + fsync
// + atomic rename for the snapshot, then a new empty log, then the old
// generation is removed. A crash at any point leaves either the old
// generation intact or the new snapshot complete — never a half state. An
// error leaves the store unusable for further appends (the station treats
// it as fatal), because the generation bookkeeping may be mid-flight.
func snapshotImage[R pattern.Row[C], C pattern.Cell](s *Store, img store.ImageOf[R, C]) error {
	next := s.seq + 1
	tmp := s.snapPath(next) + ".tmp"
	if err := writeSnapshotFile(tmp, img); err != nil {
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
	s.logBytes, s.logRecords = 0, 0
	_ = old.Close()
	_ = os.Remove(s.logPath(oldSeq))
	_ = os.Remove(s.snapPath(oldSeq)) // absent at generation 0; best-effort either way
	return syncDir(s.dir)
}

// Compact folds the log into a snapshot of img once it exceeds the
// configured record or byte threshold.
func (s *Store) Compact(img store.CellImage) (bool, error) {
	byRecords := s.opts.SnapshotEvery > 0 && s.logRecords >= s.opts.SnapshotEvery
	byBytes := s.opts.SnapshotBytes > 0 && s.logBytes >= s.opts.SnapshotBytes
	if !byRecords && !byBytes {
		return false, nil
	}
	if err := s.SnapshotCells(img); err != nil {
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

// Generation returns the current snapshot/log generation.
func (s *Store) Generation() uint64 { return s.seq }

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

// snapshotSink is what a snapshot's temp file is written through: the file
// itself. The failure tests substitute a writer that gives out partway.
var snapshotSink = func(f *os.File) io.Writer { return f }

// writeSnapshotFile creates path, streams img into it through one buffered
// writer and fsyncs it before returning.
func writeSnapshotFile[R pattern.Row[C], C pattern.Cell](path string, img store.ImageOf[R, C]) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	bw := bufio.NewWriter(snapshotSink(f))
	werr := writeSnapshot(bw, img)
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("wal: snapshot: %w", werr)
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
