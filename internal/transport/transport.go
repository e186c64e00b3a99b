// Package transport moves wire messages between the data center and base
// stations. Two implementations share one interface: an in-process pipe for
// simulations (a goroutine per station, as the paper used a thread per
// station) and a TCP transport for genuinely distributed deployments.
//
// Both implementations serialize every message through the wire codec, so
// the in-process simulation measures exactly the bytes a network deployment
// would move — the communication-cost experiments depend on that.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dimatch/internal/wire"
)

// ErrClosed is returned by operations on a closed link.
var ErrClosed = errors.New("transport: link closed")

// Link is one end of a bidirectional, ordered message pipe.
type Link interface {
	// Send transmits one message. It is safe for one goroutine at a time.
	Send(m wire.Message) error
	// Recv blocks until a message arrives or the link closes.
	Recv() (wire.Message, error)
	// Close releases the link; pending and future Recv calls fail.
	Close() error
}

// Meter counts traffic crossing a set of links. All methods are safe for
// concurrent use.
type Meter struct {
	bytes    atomic.Uint64
	messages atomic.Uint64
}

// Add records one message of the given encoded size.
func (m *Meter) Add(size int) {
	if m == nil {
		return
	}
	m.bytes.Add(uint64(size))
	m.messages.Add(1)
}

// Bytes returns the total encoded bytes recorded.
func (m *Meter) Bytes() uint64 {
	if m == nil {
		return 0
	}
	return m.bytes.Load()
}

// Messages returns the number of messages recorded.
func (m *Meter) Messages() uint64 {
	if m == nil {
		return 0
	}
	return m.messages.Load()
}

// chanLink is the in-process implementation: frames flow through buffered
// byte channels and are re-decoded on receipt, exercising the same header
// checks as TCP. A frame is rendered once, by Send; the receiver owns it
// and takes the payload as a view of it.
type chanLink struct {
	out   chan<- []byte
	in    <-chan []byte
	meter *Meter // meters this end's sends

	closeOnce sync.Once
	done      chan struct{}
	peerDone  <-chan struct{}
}

// Pipe returns the two ends of an in-process link. Sends from the first end
// are recorded on meterA, sends from the second on meterB (either may be
// nil). Separate meters let the cluster report dissemination (center→
// stations) and reporting (stations→center) traffic independently.
func Pipe(meterA, meterB *Meter) (Link, Link) {
	const depth = 16 // small buffer decouples request fan-out from replies
	ab := make(chan []byte, depth)
	ba := make(chan []byte, depth)
	aDone := make(chan struct{})
	bDone := make(chan struct{})
	a := &chanLink{out: ab, in: ba, meter: meterA, done: aDone, peerDone: bDone}
	b := &chanLink{out: ba, in: ab, meter: meterB, done: bDone, peerDone: aDone}
	return a, b
}

func (l *chanLink) Send(m wire.Message) error {
	frame := m.Encode()
	// Check for closure first: the combined select below would otherwise be
	// free to pick the buffered send even on a link already closed.
	select {
	case <-l.done:
		return ErrClosed
	case <-l.peerDone:
		return ErrClosed
	default:
	}
	select {
	case <-l.done:
		return ErrClosed
	case <-l.peerDone:
		return ErrClosed
	case l.out <- frame:
		l.meter.Add(len(frame))
		return nil
	}
}

func (l *chanLink) Recv() (wire.Message, error) {
	select {
	case <-l.done:
		return wire.Message{}, ErrClosed
	case frame := <-l.in:
		if frame == nil {
			return wire.Message{}, ErrClosed
		}
		return decodeFrame(frame)
	case <-l.peerDone:
		// Drain anything the peer sent before closing.
		select {
		case frame := <-l.in:
			if frame != nil {
				return decodeFrame(frame)
			}
		default:
		}
		return wire.Message{}, ErrClosed
	}
}

// decodeFrame parses a frame the pipe handed over: Send rendered it for this
// receiver alone, so the payload is a view of it, not a second copy.
func decodeFrame(frame []byte) (wire.Message, error) {
	m, err := wire.DecodeOwned(frame)
	if err != nil {
		return wire.Message{}, fmt.Errorf("transport: %w", err)
	}
	return m, nil
}

func (l *chanLink) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return nil
}
