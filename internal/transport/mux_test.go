package transport

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dimatch/internal/wire"
)

// echoStation answers every request with its own payload, echoing the
// request ID the way a base station loop does. It stops on shutdown or link
// closure. Requests whose payload is "hold" are not answered until release
// is closed — a controllable stall for cancellation tests.
func echoStation(t *testing.T, link Link, release <-chan struct{}) {
	t.Helper()
	for {
		msg, err := link.Recv()
		if err != nil {
			return
		}
		if msg.Kind == wire.KindShutdown {
			return
		}
		if bytes.Equal(msg.Payload, []byte("hold")) && release != nil {
			<-release
		}
		reply := wire.Message{Kind: wire.KindBatchReply, Request: msg.Request, Payload: msg.Payload}
		if err := link.Send(reply); err != nil {
			return
		}
	}
}

func TestMuxConcurrentRoundtrips(t *testing.T) {
	center, station := Pipe(nil, nil)
	go echoStation(t, station, nil)
	m := NewMux(center)
	defer m.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := []byte{byte(i), byte(i >> 8)}
			reply, err := m.Roundtrip(context.Background(), wire.Message{Kind: wire.KindStats, Payload: payload})
			if err != nil {
				t.Errorf("roundtrip %d: %v", i, err)
				return
			}
			if !bytes.Equal(reply.Payload, payload) {
				t.Errorf("roundtrip %d got someone else's reply: %v", i, reply.Payload)
			}
		}()
	}
	wg.Wait()
}

func TestMuxCancellationDoesNotPoisonLink(t *testing.T) {
	center, station := Pipe(nil, nil)
	release := make(chan struct{})
	go echoStation(t, station, release)
	m := NewMux(center)
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := m.Roundtrip(ctx, wire.Message{Kind: wire.KindStats, Payload: []byte("hold")})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled roundtrip did not return")
	}

	// Let the stalled reply go out: the dispatcher must drop it (nobody is
	// waiting on its ID) and later exchanges must still work.
	close(release)
	reply, err := m.Roundtrip(context.Background(), wire.Message{Kind: wire.KindStats, Payload: []byte("after")})
	if err != nil {
		t.Fatalf("link poisoned after cancellation: %v", err)
	}
	if !bytes.Equal(reply.Payload, []byte("after")) {
		t.Fatalf("got stale reply %q", reply.Payload)
	}
}

func TestMuxCloseFailsPendingAndFuture(t *testing.T) {
	center, station := Pipe(nil, nil)
	go echoStation(t, station, make(chan struct{})) // never released: all "hold" requests stall
	m := NewMux(center)

	errc := make(chan error, 1)
	go func() {
		_, err := m.Roundtrip(context.Background(), wire.Message{Kind: wire.KindStats, Payload: []byte("hold")})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("pending roundtrip survived Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending roundtrip did not fail on Close")
	}
	if _, err := m.Roundtrip(context.Background(), wire.StatsMessage()); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close roundtrip err = %v, want ErrClosed", err)
	}
	if m.Err() == nil {
		t.Fatal("Err() should report the failure")
	}
}

func TestMuxPeerDeathFailsPending(t *testing.T) {
	center, station := Pipe(nil, nil)
	m := NewMux(center)
	defer m.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := m.Roundtrip(context.Background(), wire.StatsMessage())
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	station.Close() // the station dies mid-exchange
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("roundtrip survived peer death")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("roundtrip did not fail on peer death")
	}
}

func TestMuxFireAndForgetUsesRequestZero(t *testing.T) {
	center, station := Pipe(nil, nil)
	m := NewMux(center)
	defer m.Close()
	if err := m.Send(wire.ShutdownMessage()); err != nil {
		t.Fatal(err)
	}
	got, err := station.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != wire.KindShutdown || got.Request != 0 {
		t.Fatalf("got %+v, want shutdown with request 0", got)
	}
}

// TestMuxRequestIDWrap: when the ID counter wraps on a long-lived link it
// must skip 0 (reserved for fire-and-forget frames) and any ID a stalled
// exchange still holds — reissuing one would route the old reply to the new
// caller.
func TestMuxRequestIDWrap(t *testing.T) {
	center, station := Pipe(nil, nil)
	m := NewMux(center)
	defer m.Close()

	m.mu.Lock()
	m.nextID = ^uint32(0) - 1
	m.mu.Unlock()

	// Three exchanges: the first takes MaxUint32 and stalls, the second
	// wraps past 0 to 1 and stalls too, the third (after another forced
	// wrap) must skip both.
	var got []uint32
	for i := 0; i < 3; i++ {
		if i == 2 {
			m.mu.Lock()
			m.nextID = ^uint32(0) - 1
			m.mu.Unlock()
		}
		go func() { _, _ = m.Roundtrip(context.Background(), wire.StatsMessage()) }()
		msg, err := station.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, msg.Request)
	}
	want := []uint32{^uint32(0), 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request IDs %v, want %v", got, want)
		}
	}
}
