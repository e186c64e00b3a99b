package wal

import (
	"encoding/binary"
	"fmt"

	"dimatch/internal/store"
	"dimatch/internal/wire"
)

// Snapshot file layout: a 5-byte header (magic "D1SN", version 1) followed
// by framed records — the resident store chunked into recResidents records
// (each body a wire ingest payload), an optional recDigest record (body a
// wire summary payload: the memoized routing digest), and a mandatory
// recSeal terminator whose body is the u64 LE total resident count. The seal
// lets the loader distinguish a complete snapshot from one a sector-level
// failure cut short even though the rename was atomic.

var snapMagic = [4]byte{'D', '1', 'S', 'N'}

const (
	snapVersion    = 1
	snapHeaderSize = 5

	// snapChunk bounds one resident record, keeping every framed record far
	// below MaxRecordBytes whatever the pattern length.
	snapChunk = 4096
)

// encodeSnapshot renders a station image as a snapshot file body.
func encodeSnapshot(img store.Image) ([]byte, error) {
	buf := append([]byte(nil), snapMagic[:]...)
	buf = append(buf, snapVersion)
	for start := 0; start < len(img.Persons); start += snapChunk {
		end := start + snapChunk
		if end > len(img.Persons) {
			end = len(img.Persons)
		}
		body, err := wire.EncodeIngestPayload(wire.Ingest{
			Persons: img.Persons[start:end],
			Locals:  img.Locals[start:end],
		})
		if err != nil {
			return nil, fmt.Errorf("wal: snapshot: %w", err)
		}
		buf = appendRecord(buf, recResidents, body)
	}
	if img.Digest != nil {
		buf = appendRecord(buf, recDigest, wire.EncodeSummaryPayload(img.Digest, 0))
	}
	var seal [8]byte
	binary.LittleEndian.PutUint64(seal[:], uint64(len(img.Persons)))
	return appendRecord(buf, recSeal, seal[:]), nil
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
	img := store.Image{}
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
			if err := fold.Apply(store.Batch{Op: store.OpIngest, Persons: in.Persons, Locals: in.Locals}); err != nil {
				return store.Image{}, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
			}
		case recDigest:
			_, sum, err := wire.DecodeSummaryPayload(body)
			if err != nil {
				return store.Image{}, fmt.Errorf("%w: digest: %w", ErrBadSnapshot, err)
			}
			img.Digest = sum
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
	folded := fold.Take()
	img.Persons, img.Locals = folded.Persons, folded.Locals
	return img, nil
}
