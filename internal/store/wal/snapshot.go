package wal

import (
	"encoding/binary"
	"fmt"
	"io"

	"dimatch/internal/pattern"
	"dimatch/internal/store"
	"dimatch/internal/wire"
)

// Snapshot file layout: a 5-byte header (magic "D1SN", version 1) followed
// by framed records — the resident store chunked into recResidents records
// (each body a wire row set) and a mandatory recSeal terminator whose
// body is the u64 LE total resident count. The seal lets the loader
// distinguish a complete snapshot from one a sector-level failure cut short
// even though the rename was atomic.

var snapMagic = [4]byte{'D', '1', 'S', 'N'}

const (
	snapVersion    = 1
	snapHeaderSize = 5

	// snapChunk bounds one resident record, keeping every framed record far
	// below MaxRecordBytes whatever the pattern length.
	snapChunk = 4096
)

// writeSnapshot streams a station image to w as a snapshot file body, one
// chunk record at a time: it holds one chunk's encoded rows, reused from
// chunk to chunk, and never the whole file.
func writeSnapshot[R pattern.Row[C], C pattern.Cell](w io.Writer, img store.ImageOf[R, C]) error {
	hdr := [snapHeaderSize]byte{4: snapVersion}
	copy(hdr[:], snapMagic[:])
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var body []byte
	for start := 0; start < len(img.Persons); start += snapChunk {
		end := min(start+snapChunk, len(img.Persons))
		var err error
		body, err = wire.EncodeRows(body[:0], img.Persons[start:end], img.Locals[start:end], nil, 0, nil)
		if err != nil {
			return err
		}
		if err := writeRecord(w, recResidents, body); err != nil {
			return err
		}
	}
	var seal [8]byte
	binary.LittleEndian.PutUint64(seal[:], uint64(len(img.Persons)))
	return writeRecord(w, recSeal, seal[:])
}

// decodeSnapshot parses a snapshot file body back into a station image of
// rows R.
// Every failure is typed under ErrBadSnapshot: snapshots are written
// atomically, so damage here is disk rot, not a crash artifact, and the
// loader refuses it rather than recovering a silently incomplete store.
func decodeSnapshot[R pattern.Row[C], C pattern.Cell](data []byte) (store.ImageOf[R, C], error) {
	var zero store.ImageOf[R, C]
	if len(data) < snapHeaderSize {
		return zero, fmt.Errorf("%w: %d byte header", ErrBadSnapshot, len(data))
	}
	if [4]byte(data[0:4]) != snapMagic {
		return zero, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if data[4] != snapVersion {
		return zero, fmt.Errorf("%w: version %d", ErrBadSnapshot, data[4])
	}
	var fold store.FoldOf[R, C]
	sealed := int64(-1)
	off := snapHeaderSize
	for off < len(data) {
		kind, body, n, err := readRecord(data[off:])
		if err != nil {
			return zero, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		off += n
		switch kind {
		case recResidents:
			persons, locals, err := wire.DecodeRows[R](body)
			if err != nil {
				return zero, fmt.Errorf("%w: residents: %w", ErrBadSnapshot, err)
			}
			if err := fold.ApplyDecoded(store.BatchOf[R, C]{Op: store.OpIngest, Persons: persons, Locals: locals}); err != nil {
				return zero, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
			}
		case recSeal:
			if len(body) != 8 {
				return zero, fmt.Errorf("%w: %d byte seal", ErrBadSnapshot, len(body))
			}
			sealed = int64(binary.LittleEndian.Uint64(body))
			if off != len(data) {
				return zero, fmt.Errorf("%w: %d bytes after seal", ErrBadSnapshot, len(data)-off)
			}
		default:
			return zero, fmt.Errorf("%w: record kind 0x%02x", ErrBadSnapshot, kind)
		}
	}
	if sealed < 0 {
		return zero, fmt.Errorf("%w: missing seal", ErrBadSnapshot)
	}
	if int64(fold.Len()) != sealed {
		return zero, fmt.Errorf("%w: sealed %d residents, decoded %d", ErrBadSnapshot, sealed, fold.Len())
	}
	return fold.Take(), nil
}
