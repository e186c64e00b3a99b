package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dimatch/internal/wire"
)

func TestPipeRoundTrip(t *testing.T) {
	var meter Meter
	a, b := Pipe(&meter, nil)
	defer a.Close()
	defer b.Close()

	want := wire.Message{Kind: wire.KindBatchReply, Payload: []byte("hello")}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || string(got.Payload) != "hello" {
		t.Fatalf("got %+v", got)
	}
	if meter.Messages() != 1 {
		t.Fatalf("meter messages = %d", meter.Messages())
	}
	if meter.Bytes() != uint64(want.EncodedSize()) {
		t.Fatalf("meter bytes = %d, want %d", meter.Bytes(), want.EncodedSize())
	}
}

func TestPipeBidirectional(t *testing.T) {
	a, b := Pipe(nil, nil)
	defer a.Close()
	defer b.Close()
	if err := b.Send(wire.StatsMessage()); err != nil {
		t.Fatal(err)
	}
	m, err := a.Recv()
	if err != nil || m.Kind != wire.KindStats {
		t.Fatalf("recv = %+v, %v", m, err)
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe(nil, nil)
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestPipePeerCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe(nil, nil)
	defer a.Close()
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on peer close")
	}
}

func TestPipeSendAfterCloseFails(t *testing.T) {
	a, b := Pipe(nil, nil)
	_ = b
	a.Close()
	if err := a.Send(wire.StatsMessage()); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestPipeDrainsBufferedAfterPeerClose(t *testing.T) {
	a, b := Pipe(nil, nil)
	defer a.Close()
	if err := b.Send(wire.ShutdownMessage()); err != nil {
		t.Fatal(err)
	}
	b.Close()
	// The already-sent message should still be deliverable.
	m, err := a.Recv()
	if err != nil {
		t.Fatalf("buffered message lost: %v", err)
	}
	if m.Kind != wire.KindShutdown {
		t.Fatalf("got %v", m.Kind)
	}
}

func TestMeterNilSafe(t *testing.T) {
	var m *Meter
	m.Add(10) // must not panic
	if m.Bytes() != 0 || m.Messages() != 0 {
		t.Fatal("nil meter should read zero")
	}
}

func TestMeterConcurrent(t *testing.T) {
	var meter Meter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				meter.Add(3)
			}
		}()
	}
	wg.Wait()
	if meter.Messages() != 8000 || meter.Bytes() != 24000 {
		t.Fatalf("meter = %d msgs / %d bytes", meter.Messages(), meter.Bytes())
	}
}

func TestTCPRoundTrip(t *testing.T) {
	var meter Meter
	ln, err := Listen("127.0.0.1:0", &meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type acceptResult struct {
		link Link
		err  error
	}
	accepted := make(chan acceptResult, 1)
	go func() {
		link, err := ln.Accept()
		accepted <- acceptResult{link, err}
	}()

	client, err := Dial(ln.Addr(), &meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	res := <-accepted
	if res.err != nil {
		t.Fatal(res.err)
	}
	server := res.link
	defer server.Close()

	want := wire.Message{Kind: wire.KindBFMatches, Payload: []byte{9, 9}}
	if err := client.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || len(got.Payload) != 2 {
		t.Fatalf("got %+v", got)
	}

	// And the reverse direction.
	if err := server.Send(wire.ShutdownMessage()); err != nil {
		t.Fatal(err)
	}
	back, err := client.Recv()
	if err != nil || back.Kind != wire.KindShutdown {
		t.Fatalf("reverse: %+v, %v", back, err)
	}
	if meter.Messages() != 2 {
		t.Fatalf("meter messages = %d", meter.Messages())
	}
}

func TestTCPRecvAfterPeerClose(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Link, 1)
	go func() {
		link, err := ln.Accept()
		if err == nil {
			accepted <- link
		}
	}()
	client, err := Dial(ln.Addr(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	client.Close()
	if _, err := server.Recv(); err == nil {
		t.Fatal("expected error after peer close")
	}
	server.Close()
}

// TestSendDoesNotRetainPayload pins Link.Send's contract: once Send returns,
// the sender may overwrite the payload — a station renders every round's
// reply into one buffer — and the peer still reads the bytes that were
// sent. Eight frames go out through one buffer, overwritten after each Send,
// before the peer reads any.
func TestSendDoesNotRetainPayload(t *testing.T) {
	for _, link := range []struct {
		name string
		pair func(testing.TB) (Link, Link)
	}{
		{"pipe", func(testing.TB) (Link, Link) { return Pipe(nil, nil) }},
		{"tcp", tcpPair},
	} {
		t.Run(link.name, func(t *testing.T) {
			a, b := link.pair(t)
			defer a.Close()
			defer b.Close()
			const frames = 8
			buf := make([]byte, 1<<10)
			for i := 0; i < frames; i++ {
				for j := range buf {
					buf[j] = byte(i + j)
				}
				if err := a.Send(wire.Message{Kind: wire.KindBatchReply, Request: uint32(i), Payload: buf}); err != nil {
					t.Fatal(err)
				}
				for j := range buf {
					buf[j] = 0xff
				}
			}
			for i := 0; i < frames; i++ {
				m, err := b.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if m.Request != uint32(i) || len(m.Payload) != len(buf) {
					t.Fatalf("frame %d: request %d, %d B", i, m.Request, len(m.Payload))
				}
				for j, c := range m.Payload {
					if c != byte(i+j) {
						t.Fatalf("frame %d byte %d reads %#x, sent %#x: the link kept the payload past Send", i, j, c, byte(i+j))
					}
				}
			}
		})
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil, nil); err == nil {
		t.Fatal("expected connection failure")
	}
}
