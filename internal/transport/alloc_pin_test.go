package transport

import (
	"runtime"
	"testing"

	"dimatch/internal/wire"
)

// TestPipeCopiesFrameOnce pins the in-process pipe to one copy per frame:
// Send renders it, and Recv takes the payload as a view of the frame it now
// owns. A 64 KiB frame (8 whole pages, so the large-object allocator's page
// rounding does not blur the ratio) must cost at most 1.1 × its bytes per
// round trip; decoding into a second copy costs 2 ×.
func TestPipeCopiesFrameOnce(t *testing.T) {
	a, b := Pipe(nil, nil)
	defer a.Close()
	defer b.Close()
	msg := wire.Message{Kind: wire.KindIngest, Request: 1, Payload: make([]byte, 64<<10-wire.HeaderSize)}
	frame := msg.EncodedSize()
	roundtrip := func() {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil || len(got.Payload) != len(msg.Payload) {
			t.Fatalf("recv: %d bytes, %v", len(got.Payload), err)
		}
	}
	roundtrip()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		roundtrip()
	}
	runtime.ReadMemStats(&after)
	perTrip := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if perTrip > 1.1*float64(frame) {
		t.Fatalf("a pipe round trip of a %d-byte frame allocates %.0f bytes; want ≤ 1.1 × the frame", frame, perTrip)
	}
}
