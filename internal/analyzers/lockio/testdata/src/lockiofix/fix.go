// Package lockiofix exercises the lockio rule with a miniature mux, link
// and cluster.
package lockiofix

import (
	"context"
	"sync"
)

type Message struct{ Kind uint8 }

// Link is the wire-link shape: Send may block on a full pipe.
type Link interface {
	Send(Message) error
	Recv() (Message, error)
	Close() error
}

type Mux struct{ link Link }

func (m *Mux) Roundtrip(ctx context.Context, msg Message) (Message, error) {
	if err := m.link.Send(msg); err != nil {
		return Message{}, err
	}
	return m.link.Recv()
}

func (m *Mux) Send(msg Message) error { return m.link.Send(msg) }

type cluster struct {
	mu  sync.Mutex
	mux *Mux
}

// searchHoldingLock roundtrips under the cluster mutex: the deadlock shape.
func (c *cluster) searchHoldingLock(ctx context.Context) (Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mux.Roundtrip(ctx, Message{}) // want `call to Mux\.Roundtrip while c\.mu is held`
}

// notifyHoldingLock does a fire-and-forget send under the mutex; Send
// serializes on the link and can block just as long.
func (c *cluster) notifyHoldingLock() error {
	c.mu.Lock()
	err := c.mux.Send(Message{}) // want `call to Mux\.Send while c\.mu is held`
	c.mu.Unlock()
	return err
}

// rawLinkHoldingLock blocks on the link interface directly.
func (c *cluster) rawLinkHoldingLock(l Link) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return l.Send(Message{}) // want `call to Link\.Send while c\.mu is held`
}

// searchPinned is the conforming shape: snapshot under the lock, roundtrip
// outside it.
func (c *cluster) searchPinned(ctx context.Context) (Message, error) {
	c.mu.Lock()
	mux := c.mux
	c.mu.Unlock()
	return mux.Roundtrip(ctx, Message{})
}

// closeUnderLock calls a non-blocking method under the lock: not a finding.
func (c *cluster) closeUnderLock(l Link) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return l.Close()
}

// sendSerialized shows the documented escape hatch for the one legitimate
// case (a mutex that exists to serialize the link itself).
func (c *cluster) sendSerialized() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mux.Send(Message{}) //dimatch:allow lockio — this mutex serializes the link
}
