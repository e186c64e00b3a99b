package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	m := Message{Kind: KindBatchReply, Request: 7, Payload: []byte{1, 2, 3}}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.Request != 7 || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("round trip: %+v", got)
	}
	if m.EncodedSize() != len(m.Encode()) {
		t.Fatal("EncodedSize disagrees with Encode")
	}
}

func TestWithRequest(t *testing.T) {
	m := Message{Kind: KindStats}.WithRequest(41)
	if m.Request != 41 {
		t.Fatalf("Request = %d", m.Request)
	}
	got, err := Decode(m.Encode())
	if err != nil || got.Request != 41 {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}

// TestFrameHeaderErrors is the one table for both frame decoders: Decode (a
// whole buffer) and ReadMessage (a stream) must classify the same bytes with
// the same typed error, checking short → magic → version → kind → length in
// that order.
func TestFrameHeaderErrors(t *testing.T) {
	good := Message{Kind: KindStats, Request: 3}.Encode()
	set := func(off int, v byte) func([]byte) []byte {
		return func(b []byte) []byte { b[off] = v; return b }
	}
	type tc struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}
	tests := []tc{
		{"short 4", func(b []byte) []byte { return b[:4] }, ErrTruncated},
		{"short 8", func(b []byte) []byte { return b[:8] }, ErrTruncated},
		{"short 11", func(b []byte) []byte { return b[:11] }, ErrTruncated},
		// Every wrong field at once: short wins, then each field in order.
		{"short 11 beats bad magic", func(b []byte) []byte { b[0], b[2], b[3] = 0, 1, 200; return b[:11] }, ErrTruncated},
		{"bad magic beats bad version", func(b []byte) []byte { b[0], b[2], b[3] = 0, 1, 200; return b }, ErrBadMagic},
		{"bad version beats bad kind", func(b []byte) []byte { b[2], b[3] = 1, 200; return b }, ErrBadVersion},
		{"bad kind beats oversized", func(b []byte) []byte { b[3], b[11] = 200, 0xFF; return b }, ErrBadKind},
		{"zero version", set(2, 0), ErrBadVersion},
		{"zero kind", set(3, 0), ErrBadKind},
		{"retired kind 1", set(3, 1), ErrBadKind},
		{"retired kind 3", set(3, 3), ErrBadKind},
		{"retired kind 4", set(3, 4), ErrBadKind},
		{"retired kind 6", set(3, 6), ErrBadKind},
		{"retired kind 7", set(3, 7), ErrBadKind},
		{"retired kind 13", set(3, 13), ErrBadKind},
		{"retired kind 20", set(3, 20), ErrBadKind},
		{"retired kind 21", set(3, 21), ErrBadKind},
		{"retired kind 22", set(3, 22), ErrBadKind},
		{"retired kind 23", set(3, 23), ErrBadKind},
		{"kind past maxKind", set(3, uint8(maxKind)+1), ErrBadKind},
		{"oversized length", set(11, 0xFF), ErrOversized},
		{"length past payload", set(8, 5), ErrTruncated},
	}
	for v := byte(1); v <= Version+1; v++ {
		if v != Version {
			tests = append(tests, tc{fmt.Sprintf("version %d", v), set(2, v), ErrBadVersion})
		}
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := tt.mutate(append([]byte(nil), good...))
			if _, err := Decode(b); !errors.Is(err, tt.want) {
				t.Errorf("Decode: err = %v, want %v", err, tt.want)
			}
			if _, err := ReadMessage(bytes.NewReader(b)); !errors.Is(err, tt.want) {
				t.Errorf("ReadMessage: err = %v, want %v", err, tt.want)
			}
		})
	}
	// Only the whole-buffer form can see bytes after the frame.
	if _, err := Decode(append(append([]byte(nil), good...), 0)); !errors.Is(err, ErrTruncated) {
		t.Errorf("Decode with a trailing byte: err = %v, want %v", err, ErrTruncated)
	}
}

func TestReadWriteMessage(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Kind: KindStats, Request: 1},
		{Kind: KindBatchReply, Request: 2, Payload: []byte("abc")},
		{Kind: KindShutdown},
	}
	for _, m := range msgs {
		buf.Write(m.Encode())
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.Request != want.Request || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
	if _, err := ReadMessage(&buf); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want bare io.EOF", err)
	}
}

// TestReadMessageBoundsAllocation pins ReadMessage's growth rule. A header
// declaring MaxPayload over a stream that then ends is refused as truncated
// after allocating at most 8 MiB (it allocated the whole declared GiB before
// reading a payload byte). A legitimate 1.9 MB frame, the size of a bulk
// ingest, still costs one payload-sized allocation: besides it, only the
// 12-byte header array, which escapes through the io.Reader call.
func TestReadMessageBoundsAllocation(t *testing.T) {
	hdr := Message{Kind: KindIngest, Request: 1}.Header()
	binary.LittleEndian.PutUint32(hdr[8:12], MaxPayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMessage(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("a %d-byte header claiming %d payload bytes allocated %d bytes; want < 8 MiB", len(hdr), MaxPayload, got)
	}

	const size = 1_900_000
	frame := Message{Kind: KindIngest, Request: 2, Payload: make([]byte, size)}.Encode()
	r := bytes.NewReader(frame)
	const runs = 10
	read := func() {
		r.Reset(frame)
		m, err := ReadMessage(r)
		if err != nil || len(m.Payload) != size {
			t.Fatalf("bulk frame: %d bytes, %v", len(m.Payload), err)
		}
	}
	read()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	perFrame := (after.TotalAlloc - before.TotalAlloc) / runs
	// The large-object allocator rounds the payload up to whole 8 KiB pages.
	if allocs != 2 || perFrame > size+8<<10+64 {
		t.Fatalf("a 1.9 MB frame costs %d allocations of %d bytes in all; want the payload and the header", allocs, perFrame)
	}
}

func TestReadMessageRejectsGarbage(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(kindRaw uint8, request uint32, payload []byte) bool {
		kind := KindBFQuery + Kind(kindRaw)%(maxKind-KindBFQuery+1)
		m := Message{Kind: kind, Request: request, Payload: payload}
		got, err := Decode(m.Encode())
		if !kind.known() {
			return errors.Is(err, ErrBadKind)
		}
		return err == nil && got.Kind == kind && got.Request == request && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag(%d) round-tripped to %d", v, got)
		}
	}
}

func TestReaderGuards(t *testing.T) {
	// A count field claiming more elements than the buffer could hold must
	// be rejected rather than allocated.
	var w writer
	w.uvarint(1 << 40)
	r := &reader{buf: w.buf}
	if r.count(8); r.err == nil {
		t.Fatal("implausible count accepted")
	}

	// Truncated varint.
	r = &reader{buf: []byte{0x80}}
	if r.uvarint(); r.err == nil {
		t.Fatal("truncated varint accepted")
	}

	// Short u64 / u8.
	r = &reader{buf: []byte{1, 2}}
	if r.u64(); r.err == nil {
		t.Fatal("short u64 accepted")
	}
	r = &reader{buf: nil}
	if r.u8(); r.err == nil {
		t.Fatal("u8 on empty accepted")
	}

	// Trailing bytes.
	r = &reader{buf: []byte{1, 2}}
	r.u8()
	if err := r.done(); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
