// Package wire defines the binary message format exchanged between the
// data center and base stations. Every message knows its encoded size, which
// is what the communication-cost experiments (Figure 4c) meter: the paper's
// central claim is that shipping a filter out and (ID, weight) pairs back is
// orders of magnitude cheaper than shipping raw pattern data in.
//
// Frame layout (little endian):
//
//	magic     uint16  0xD1A7 ("DI-matching")
//	version   uint8   Version
//	kind      uint8
//	requestID uint32  correlates a reply with the request that caused it
//	length    uint32  payload byte count
//	payload   [length]byte
//
// The request ID is what lets many searches share one link: the data center
// stamps every outgoing request with a fresh ID, stations echo it on their
// reply, and a per-link dispatcher routes each reply to the owning search.
// ID 0 is reserved for fire-and-forget frames (shutdown) that expect no
// reply.
//
// There is one protocol version. A frame stamped with any other version byte
// is rejected with ErrBadVersion, so a peer built from different source is
// refused at the first frame instead of half-understood; see docs/WIRE.md.
//
// Payloads use unsigned varints for counts and small integers, raw 64-bit
// words for bit arrays, and Rice-coded bit streams for the sorted IDs of the
// search exchange (set bits, pointer lists, reply persons).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Kind discriminates message payloads.
type Kind uint8

// Message kinds. The numeric values are the wire encoding and never change.
// Retired values stay unassigned: 1 and 4 belonged to the per-query WBF
// exchange, 3, 6 and 7 to the naive shipment and verification fetch that
// KindDump/KindDumpReply now carry, 13 to the mutation acknowledgment that
// KindStatsReply replaced, 20 and 21 to the region tier's delegated search
// round, 22 and 23 to the adaptive digest parameter rollout.
const (
	// KindBFQuery disseminates a plain Bloom filter plus pipeline params.
	KindBFQuery Kind = 2
	// KindBFMatches carries bare person IDs (BF baseline has no weights).
	KindBFMatches Kind = 5
	// KindShutdown tells a station loop to exit cleanly.
	KindShutdown Kind = 8
	// KindIngest adds (or replaces) resident patterns at a station; the
	// station answers with its KindStatsReply, taken after the ingest applied.
	KindIngest Kind = 9
	// KindEvict removes residents from a station; answered like KindIngest.
	KindEvict Kind = 10
	// KindStats asks a station for its resident count and storage footprint;
	// answered with KindStatsReply.
	KindStats Kind = 11
	// KindStatsReply carries one station's resident count and storage bytes.
	KindStatsReply Kind = 12
	// KindBatchQuery disseminates one search round — the query-ID set and
	// the combined WBF covering all of them — in a single request.
	KindBatchQuery Kind = 14
	// KindBatchReply answers a batch query with per-person reports covering
	// every query of the round.
	KindBatchReply Kind = 15
	// KindDump asks a station for the raw local patterns of specific persons,
	// or its whole store when the filter is empty — the one raw-pattern pull
	// behind the naive baseline, the verification phase and re-replication.
	KindDump Kind = 16
	// KindDumpReply answers a dump with the (person, local pattern) rows
	// the station holds.
	KindDumpReply Kind = 17
	// KindSummary asks a station for its routing summary — the Bloom digest
	// of its residents' accumulated cells the coordinator probes to prune
	// search fan-out.
	KindSummary Kind = 18
	// KindSummaryReply carries one station's routing summary.
	KindSummaryReply Kind = 19
)

// maxKind is the highest assigned kind.
const maxKind = KindSummaryReply

// known reports whether k is a kind this codec speaks. Anything else — the
// retired values included — is rejected with ErrBadKind at the frame header,
// before any payload is read.
func (k Kind) known() bool {
	switch k {
	case 1, 3, 4, 6, 7, 13:
		return false
	default:
		return k >= KindBFQuery && k <= maxKind
	}
}

func (k Kind) String() string {
	switch k {
	case KindBFQuery:
		return "bf-query"
	case KindBFMatches:
		return "bf-matches"
	case KindShutdown:
		return "shutdown"
	case KindIngest:
		return "ingest"
	case KindEvict:
		return "evict"
	case KindStats:
		return "stats"
	case KindStatsReply:
		return "stats-reply"
	case KindBatchQuery:
		return "batch-query"
	case KindBatchReply:
		return "batch-reply"
	case KindDump:
		return "dump"
	case KindDumpReply:
		return "dump-reply"
	case KindSummary:
		return "summary"
	case KindSummaryReply:
		return "summary-reply"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Version is the one protocol version: every frame is stamped with it and a
// frame stamped otherwise is rejected with ErrBadVersion. It stays above
// every value earlier builds stamped (2–7 by kind, 8 while kinds 3, 6 and 7
// were live, 9 while a filter shipped a pointer list per set bit and a reply
// absolute person IDs, 10 while a reply carried a pointer list per report,
// 11 while a filter shipped its bit array word by word, 12 while a query
// frame shipped its weight rows and pointer lists as varints and a reply
// every person gap as one, 13 while no query frame could carry a person
// bound, 14 while kinds 22 and 23 carried adaptive digest parameters, 15
// while a routing digest held every position's cell under four hashes, 16
// while mutations were answered with KindAck, 17 while kinds 20 and 21
// carried the region tier's delegated rounds and a stats reply a flags
// byte, 18 while a params block carried a tolerance byte, 19 while a params
// block carried ε, a query frame its insertion count and every reply but the
// batch reply its station), so none of their frames decode.
const Version = uint8(20)

const (
	magic = uint16(0xD1A7)
	// HeaderSize is the fixed frame header's byte count.
	HeaderSize = 12
	// MaxPayload bounds a single frame; large enough for city-scale naive
	// shipments, small enough to reject corrupt length fields.
	MaxPayload = 1 << 30
	// MaxBatchQueries bounds the query count of one batch frame, so a
	// corrupt count is rejected before any allocation.
	MaxBatchQueries = 4096
	// readChunk bounds what ReadMessage allocates before payload bytes
	// arrive. It covers every frame the benchmark workloads send (the
	// largest, a bulk ingest, is ≈ 1.9 MB), so their payloads are still
	// allocated once; a longer payload grows by doubling as its bytes arrive.
	readChunk = 4 << 20
)

// Errors returned by frame decoding.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadKind    = errors.New("wire: unknown message kind")
	ErrTruncated  = errors.New("wire: truncated message")
	ErrOversized  = errors.New("wire: payload exceeds limit")
	// ErrBatchTooLarge rejects a batch frame declaring more than
	// MaxBatchQueries queries (or an encode request exceeding it).
	ErrBatchTooLarge = errors.New("wire: batch query count exceeds limit")
	// ErrBatchMismatch rejects a batch payload whose parts disagree — a
	// query ID declared twice, or declared IDs that are not the filter's.
	ErrBatchMismatch = errors.New("wire: batch payload inconsistent")
	// ErrBadWeight rejects a weight table that cannot travel as local sums:
	// a query's sums negative, past 2⁶³−1 or totalling 0 or more than
	// 2⁶³−1, or — encoding — rows that are not core.WeightRows of their
	// sums, or a row no pointer list names.
	ErrBadWeight = errors.New("wire: weight row out of range")
	// ErrBadBound rejects a query frame's person bound that the encoder
	// cannot have written: an end sent as 0, To ≤ From, or a bound on a kind
	// that takes none.
	ErrBadBound = errors.New("wire: person bound malformed")
	// ErrNoHashes rejects a summary whose hash-count field is 0: a digest
	// hashes every cell at least once, so no station encodes one.
	ErrNoHashes = errors.New("wire: summary hash count 0")
	// ErrCellRange rejects a row value a station's int32 cell cannot hold
	// (an ingest frame, WAL record or snapshot chunk read into int32 rows):
	// the station refuses the frame rather than store another value.
	ErrCellRange   = errors.New("wire: row value outside int32")
	errShortBuffer = errors.New("wire: short buffer")
)

// Message is one framed unit on a link. Request correlates a reply with the
// request that caused it; 0 marks fire-and-forget frames.
type Message struct {
	Kind    Kind
	Request uint32
	Payload []byte
}

// WithRequest returns a copy of the message stamped with the given request
// ID. The payload is shared, not copied.
func (m Message) WithRequest(id uint32) Message {
	m.Request = id
	return m
}

// EncodedSize returns the full frame size in bytes — the unit the cost
// meters count.
func (m Message) EncodedSize() int { return HeaderSize + len(m.Payload) }

// Encode renders the frame.
func (m Message) Encode() []byte {
	out := make([]byte, 0, HeaderSize+len(m.Payload))
	return m.AppendFrame(out)
}

// Header renders the frame header: the bytes AppendFrame writes before the
// payload, and what a link writes beside the payload without copying it.
func (m Message) Header() [HeaderSize]byte {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint16(hdr[0:2], magic)
	hdr[2] = Version
	hdr[3] = uint8(m.Kind)
	binary.LittleEndian.PutUint32(hdr[4:8], m.Request)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(m.Payload)))
	return hdr
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice — the reusable-buffer variant of Encode for callers that render one
// frame after another into the same buffer. With sufficient capacity it
// performs no allocation.
//
// Allocation-free: alloc_pin_test.go holds it to 0 allocs/op.
func (m Message) AppendFrame(dst []byte) []byte {
	hdr := m.Header()
	return append(append(dst, hdr[:]...), m.Payload...)
}

// parseHeader validates the fixed header shared by Decode and ReadMessage,
// checking magic, then version, then kind, then length — so both report the
// same typed error for the same bytes. It returns the message without its
// payload, and the payload's declared length.
func parseHeader(hdr *[HeaderSize]byte) (Message, uint32, error) {
	if binary.LittleEndian.Uint16(hdr[0:2]) != magic {
		return Message{}, 0, ErrBadMagic
	}
	if hdr[2] != Version {
		return Message{}, 0, ErrBadVersion
	}
	kind := Kind(hdr[3])
	if !kind.known() {
		return Message{}, 0, ErrBadKind
	}
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if n > MaxPayload {
		return Message{}, 0, ErrOversized
	}
	return Message{Kind: kind, Request: binary.LittleEndian.Uint32(hdr[4:8])}, n, nil
}

// Decode parses a frame from b, which must contain exactly one frame. The
// payload is a copy: b stays the caller's.
func Decode(b []byte) (Message, error) {
	m, err := DecodeOwned(b)
	if err != nil {
		return Message{}, err
	}
	m.Payload = append(make([]byte, 0, len(m.Payload)), m.Payload...)
	return m, nil
}

// DecodeOwned is Decode for a frame the caller hands over: the payload is a
// subslice of b, not a copy, so b must not be written afterwards. The
// in-process pipe, whose receiver owns every frame it is sent, decodes
// this way.
func DecodeOwned(b []byte) (Message, error) {
	if len(b) < HeaderSize {
		return Message{}, ErrTruncated
	}
	m, n, err := parseHeader((*[HeaderSize]byte)(b))
	if err != nil {
		return Message{}, err
	}
	if len(b) != HeaderSize+int(n) {
		return Message{}, ErrTruncated
	}
	m.Payload = b[HeaderSize:len(b):len(b)]
	return m, nil
}

// ReadMessage reads exactly one frame from r. A stream that ends before the
// first header byte returns the reader's error bare (io.EOF on a clean
// close); one that ends inside a frame returns ErrTruncated.
//
// The declared length is not trusted with memory: the payload buffer starts
// at min(length, 4 MiB), and past that doubles, capped at the length, only
// as each buffer fills. A header claiming MaxPayload over a stream that then
// ends costs 4 MiB, not 1 GiB; a payload of at most 4 MiB is allocated once,
// at its exact size.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [HeaderSize]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if n == 0 {
			return Message{}, err
		}
		return Message{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	m, n, err := parseHeader(&hdr)
	if err != nil {
		return Message{}, err
	}
	buf := make([]byte, min(int(n), readChunk))
	for got := 0; ; {
		k, err := io.ReadFull(r, buf[got:])
		got += k
		if err != nil {
			return Message{}, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		if got == int(n) {
			break
		}
		next := make([]byte, min(int(n), 2*got))
		copy(next, buf)
		buf = next
	}
	m.Payload = buf
	return m, nil
}

// ---- payload buffer helpers ----

// writer accumulates a payload.
type writer struct {
	buf []byte
}

func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) u8(v uint8) { w.buf = append(w.buf, v) }

func (w *writer) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// reader consumes a payload, remembering the first error.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(errShortBuffer)
		return 0
	}
	r.off += n
	return v
}

// u32 reads a uvarint that must fit 32 bits: a wider one is an error, not
// silently truncated.
func (r *reader) u32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail(fmt.Errorf("wire: %d overflows 32 bits", v))
		return 0
	}
	return uint32(v)
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(errShortBuffer)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail(errShortBuffer)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// count reads a length prefix and sanity-checks it against a per-element
// minimum size, so corrupt counts cannot trigger huge allocations.
func (r *reader) count(minElemBytes int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	remaining := len(r.buf) - r.off
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if v > uint64(remaining/minElemBytes)+1 {
		r.fail(fmt.Errorf("wire: count %d implausible for %d remaining bytes", v, remaining))
		return 0
	}
	return int(v)
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}
