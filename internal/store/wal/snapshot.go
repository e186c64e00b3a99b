package wal

import (
	"encoding/binary"
	"fmt"
	"io"

	"dimatch/internal/store"
	"dimatch/internal/wire"
)

// Snapshot file layout: a 5-byte header (magic "D1SN", version 1) followed
// by framed records — the resident store chunked into recResidents records
// (each body a wire ingest payload) and a mandatory recSeal terminator whose
// body is the u64 LE total resident count. The seal lets the loader
// distinguish a complete snapshot from one a sector-level failure cut short
// even though the rename was atomic. Snapshots written before the digest left
// the store may also hold one retired recDigest record, which the loader
// skips.

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
func writeSnapshot(w io.Writer, img store.Image) error {
	hdr := [snapHeaderSize]byte{4: snapVersion}
	copy(hdr[:], snapMagic[:])
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var body []byte
	for start := 0; start < len(img.Persons); start += snapChunk {
		end := min(start+snapChunk, len(img.Persons))
		var err error
		body, err = wire.AppendIngestPayload(body[:0], wire.Ingest{
			Persons: img.Persons[start:end],
			Locals:  img.Locals[start:end],
		}, nil)
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

// decodeSnapshot parses a snapshot file body back into a station image.
// Every failure is typed under ErrBadSnapshot: snapshots are written
// atomically, so damage here is disk rot, not a crash artifact, and the
// loader refuses it rather than recovering a silently incomplete store.
func decodeSnapshot(data []byte) (store.Image, error) {
	if len(data) < snapHeaderSize {
		return store.Image{}, fmt.Errorf("%w: %d byte header", ErrBadSnapshot, len(data))
	}
	if [4]byte(data[0:4]) != snapMagic {
		return store.Image{}, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if data[4] != snapVersion {
		return store.Image{}, fmt.Errorf("%w: version %d", ErrBadSnapshot, data[4])
	}
	var fold store.Fold
	sealed := int64(-1)
	off := snapHeaderSize
	for off < len(data) {
		kind, body, n, err := readRecord(data[off:])
		if err != nil {
			return store.Image{}, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		off += n
		switch kind {
		case recResidents:
			in, err := wire.DecodeIngestPayload(body)
			if err != nil {
				return store.Image{}, fmt.Errorf("%w: residents: %w", ErrBadSnapshot, err)
			}
			if err := fold.ApplyDecoded(store.Batch{Op: store.OpIngest, Persons: in.Persons, Locals: in.Locals}); err != nil {
				return store.Image{}, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
			}
		case recDigest:
			// Derived state an older build persisted: the station rebuilds
			// its digest from the residents, so the body is never read.
		case recSeal:
			if len(body) != 8 {
				return store.Image{}, fmt.Errorf("%w: %d byte seal", ErrBadSnapshot, len(body))
			}
			sealed = int64(binary.LittleEndian.Uint64(body))
			if off != len(data) {
				return store.Image{}, fmt.Errorf("%w: %d bytes after seal", ErrBadSnapshot, len(data)-off)
			}
		default:
			return store.Image{}, fmt.Errorf("%w: record kind 0x%02x", ErrBadSnapshot, kind)
		}
	}
	if sealed < 0 {
		return store.Image{}, fmt.Errorf("%w: missing seal", ErrBadSnapshot)
	}
	if int64(fold.Len()) != sealed {
		return store.Image{}, fmt.Errorf("%w: sealed %d residents, decoded %d", ErrBadSnapshot, sealed, fold.Len())
	}
	return fold.Take(), nil
}
