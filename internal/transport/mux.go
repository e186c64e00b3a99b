package transport

import (
	"context"
	"sync"

	"dimatch/internal/wire"
)

// Mux multiplexes concurrent request/reply exchanges over one Link. The data
// center owns one Mux per station link: sends are serialized so concurrent
// searches cannot interleave frames, and a dispatcher goroutine routes every
// incoming reply to the exchange that requested it by wire request ID.
//
// A caller whose context is cancelled simply abandons its exchange: the
// pending entry is dropped and the station's late reply, arriving with a
// request ID nobody is waiting on, is discarded by the dispatcher without
// disturbing other exchanges on the link.
type Mux struct {
	link Link

	sendMu    sync.Mutex // serializes frames onto the link
	closeOnce sync.Once  // the link is closed once, however often Close runs

	mu      sync.Mutex
	pending map[uint32]chan wire.Message // dimatch:guardedby mu
	nextID  uint32                       // dimatch:guardedby mu
	err     error                        // dimatch:guardedby mu — first link failure, sticky
	done    chan struct{}                // closed on link failure or Close
}

// NewMux wraps a link and starts its dispatcher goroutine. The caller must
// Close the mux (which closes the link) to release the goroutine.
func NewMux(link Link) *Mux {
	m := &Mux{
		link:    link,
		pending: make(map[uint32]chan wire.Message),
		done:    make(chan struct{}),
	}
	go m.dispatch()
	return m
}

// dispatch is the receive loop: it routes each reply to the pending exchange
// with the matching request ID and drops replies nobody awaits (abandoned by
// cancellation). It exits on the first receive error, failing the mux.
func (m *Mux) dispatch() {
	for {
		msg, err := m.link.Recv()
		if err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[msg.Request]
		if ok {
			delete(m.pending, msg.Request)
		}
		m.mu.Unlock()
		if ok {
			ch <- msg // buffered, exactly one delivery per ID: never blocks
		}
	}
}

// fail records the first error and wakes every waiter. Idempotent.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		close(m.done)
	}
	m.mu.Unlock()
}

// Roundtrip stamps msg with a fresh request ID, sends it, and waits for the
// matching reply, the context's cancellation, or link failure. It is safe
// for any number of concurrent callers. On any failure — send error, link
// failure, cancellation — the exchange is abandoned and a late reply for it
// is dropped by the dispatcher.
func (m *Mux) Roundtrip(ctx context.Context, msg wire.Message) (wire.Message, error) {
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return wire.Message{}, err
	}
	// 0 is reserved for fire-and-forget frames, and an ID still pending
	// (possible once the counter wraps on a long-lived link) must not be
	// reissued: the old exchange's reply would be routed to the new one.
	for {
		m.nextID++
		if m.nextID == 0 {
			m.nextID = 1
		}
		if _, busy := m.pending[m.nextID]; !busy {
			break
		}
	}
	id := m.nextID
	// A fresh channel per exchange: a late dispatcher delivery into an
	// abandoned channel must never surface in a subsequent call.
	ch := make(chan wire.Message, 1)
	m.pending[id] = ch
	m.mu.Unlock()
	abandon := func(err error) (wire.Message, error) {
		m.forget(id)
		return wire.Message{}, err
	}

	// The frame is sent from its own goroutine, so a caller's deadline is
	// honored even while the link blocks (a stalled TCP peer, a full pipe):
	// the caller abandons the exchange promptly, and the blocked send
	// resolves when the link drains or closes. A call abandoned while it
	// queued for sendMu sends nothing.
	sendDone := make(chan error, 1)
	go func() {
		m.sendMu.Lock()
		defer m.sendMu.Unlock()
		if err := ctx.Err(); err != nil {
			sendDone <- err
			return
		}
		//dimatch:allow lockio — sendMu serializes link writes, which can block (a TCP Send is a writev); this goroutine sends for Roundtrip, which honours the caller's ctx while a write blocks, and Close releases a stalled write
		sendDone <- m.link.Send(msg.WithRequest(id))
	}()
	select {
	case err := <-sendDone:
		if err != nil {
			return abandon(err)
		}
	case <-ctx.Done():
		return abandon(ctx.Err())
	case <-m.done:
		return abandon(m.Err())
	}

	select {
	case reply := <-ch:
		return reply, nil
	case <-ctx.Done():
		return abandon(ctx.Err())
	case <-m.done:
		// The reply may have been delivered in the instant before failure.
		select {
		case reply := <-ch:
			return reply, nil
		default:
		}
		return abandon(m.Err())
	}
}

// forget abandons a pending exchange; a late reply for it will be dropped.
func (m *Mux) forget(id uint32) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// Send transmits a fire-and-forget frame (request ID 0), serialized against
// in-flight roundtrips.
func (m *Mux) Send(msg wire.Message) error {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	//dimatch:allow lockio — sendMu serializes link writes, which can block (a TCP Send is a writev); the one caller, stopMux, sends from its own goroutine under a grace timer, and Close releases a stalled write
	return m.link.Send(msg.WithRequest(0))
}

// Err returns the sticky link failure, if any.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Close closes the underlying link, on the first call only, and fails every
// pending and future exchange with ErrClosed.
func (m *Mux) Close() (err error) {
	m.closeOnce.Do(func() { err = m.link.Close() })
	m.fail(ErrClosed)
	return err
}
