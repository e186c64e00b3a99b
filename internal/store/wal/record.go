package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing, shared by the log and the snapshot body. Every record is
// length-prefixed and CRC-framed so a torn or bit-rotted tail is detected,
// never replayed:
//
//	+-----------+-----------+---------+--------------------+
//	| length u32| crc32 u32 | kind u8 | body (length-1 B)  |
//	| little-endian LE      |         | wire payload bytes |
//	+-----------+-----------+---------+--------------------+
//
// length counts the kind byte plus the body; crc32 is IEEE over the kind
// byte plus the body. Bodies reuse the wire payload codecs verbatim: a
// recIngest body is exactly wire.EncodeIngestPayload's output, a recEvict
// body wire.EncodeEvictPayload's, a recDigest body
// wire.EncodeSummaryPayload's — persistence and the wire share one binary
// vocabulary (docs/WIRE.md).
const headerSize = 8

// MaxRecordBytes bounds one framed record. A length field beyond it is
// rejected as corruption before any allocation or read is attempted, so a
// flipped bit in a length prefix can never balloon recovery memory.
const MaxRecordBytes = 64 << 20

// Record kinds. Log records carry applied station batches; snapshot records
// carry the folded image.
const (
	recIngest byte = 0x01 // body: wire ingest payload (applied upserts)
	recEvict  byte = 0x02 // body: wire evict payload (applied removals)

	recResidents byte = 0x11 // snapshot: one chunk of the resident store (ingest payload)
	recDigest    byte = 0x12 // snapshot: the memoized routing digest (summary payload)
	recSeal      byte = 0x1f // snapshot terminator: u64 LE total resident count
)

// Typed decode errors. Recovery treats any of them at the log tail as a torn
// write and truncates; the snapshot loader treats them as fatal corruption
// (snapshots are written atomically, so a damaged one is disk rot, not a
// crash artifact).
var (
	// ErrTruncated marks a record whose header or body runs past the end of
	// the data — the classic torn tail.
	ErrTruncated = errors.New("wal: truncated record")
	// ErrBadLength marks a zero length prefix (too short to hold the kind).
	ErrBadLength = errors.New("wal: bad record length")
	// ErrTooLarge marks a length prefix beyond MaxRecordBytes.
	ErrTooLarge = errors.New("wal: record exceeds size bound")
	// ErrChecksum marks a CRC mismatch.
	ErrChecksum = errors.New("wal: record checksum mismatch")
	// ErrBadKind marks a record kind the reader does not know.
	ErrBadKind = errors.New("wal: unknown record kind")
	// ErrBadSnapshot marks a snapshot file with a bad header, a missing
	// seal, or sections that do not add up to the sealed resident count.
	ErrBadSnapshot = errors.New("wal: corrupt snapshot")
)

// recordHeader returns the bytes that precede body in its framed record:
// length, CRC and kind.
func recordHeader(kind byte, body []byte) [headerSize + 1]byte {
	if 1+len(body) > MaxRecordBytes {
		// Callers chunk their payloads well below the bound; reaching it is
		// a programming error, not a runtime condition.
		panic(fmt.Sprintf("wal: record body %d bytes exceeds MaxRecordBytes", len(body)))
	}
	var hdr [headerSize + 1]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(1+len(body)))
	hdr[headerSize] = kind
	sum := crc32.Update(0, crc32.IEEETable, hdr[headerSize:])
	sum = crc32.Update(sum, crc32.IEEETable, body)
	binary.LittleEndian.PutUint32(hdr[4:8], sum)
	return hdr
}

// appendRecord frames body under kind onto dst.
func appendRecord(dst []byte, kind byte, body []byte) []byte {
	hdr := recordHeader(kind, body)
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// readRecord decodes the first framed record in b, returning its kind, body
// and the total bytes consumed. The body aliases b — decoding allocates
// nothing, and a corrupt length field is checked against the bytes actually
// present before anything else, so it can never cause an over-allocation.
func readRecord(b []byte) (kind byte, body []byte, n int, err error) {
	if len(b) < headerSize {
		return 0, nil, 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	ln := binary.LittleEndian.Uint32(b[0:4])
	if ln == 0 {
		return 0, nil, 0, ErrBadLength
	}
	if ln > MaxRecordBytes {
		return 0, nil, 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, ln)
	}
	if int(ln) > len(b)-headerSize {
		return 0, nil, 0, fmt.Errorf("%w: %d byte record, %d present", ErrTruncated, ln, len(b)-headerSize)
	}
	payload := b[headerSize : headerSize+int(ln)]
	if got := crc32.ChecksumIEEE(payload); got != binary.LittleEndian.Uint32(b[4:8]) {
		return 0, nil, 0, ErrChecksum
	}
	return payload[0], payload[1:], headerSize + int(ln), nil
}
