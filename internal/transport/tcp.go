package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"dimatch/internal/wire"
)

// tcpLink frames wire messages over a TCP connection.
type tcpLink struct {
	conn      net.Conn
	r         *bufio.Reader
	sendMeter *Meter
	recvMeter *Meter

	sendMu sync.Mutex
	// hdr, vec and bufs are Send's writev scratch: the header, then views of
	// it and of the payload being sent. Fields rather than locals, so a send
	// allocates nothing; vec is cleared after each send so the link never
	// holds a payload.
	hdr  [wire.HeaderSize]byte // dimatch:guardedby sendMu
	vec  [2][]byte             // dimatch:guardedby sendMu
	bufs net.Buffers           // dimatch:guardedby sendMu

	closeOnce sync.Once
	closeErr  error
}

// readBufSize is a link's read buffer. Search frames fit it; a bulk frame
// is read past it, because bufio.Reader hands a read at least as large as
// its buffer straight to the connection, so the payload still lands in one
// ReadFull.
const readBufSize = 4 << 10

// NewTCPLink wraps an established connection. Unlike the in-process pipe —
// whose two ends share one process, so metering sends covers both
// directions — a TCP end meters its own sends on sendMeter and its receives
// on recvMeter (either may be nil): the peer's meters live in another
// process.
func NewTCPLink(conn net.Conn, sendMeter, recvMeter *Meter) Link {
	return &tcpLink{
		conn:      conn,
		r:         bufio.NewReaderSize(conn, readBufSize),
		sendMeter: sendMeter,
		recvMeter: recvMeter,
	}
}

// Dial connects to a listening peer.
func Dial(addr string, sendMeter, recvMeter *Meter) (Link, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCPLink(conn, sendMeter, recvMeter), nil
}

// Listener accepts peers and wraps them as Links.
type Listener struct {
	ln        net.Listener
	sendMeter *Meter
	recvMeter *Meter
}

// Listen starts a TCP listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string, sendMeter, recvMeter *Meter) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{ln: ln, sendMeter: sendMeter, recvMeter: recvMeter}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Accept waits for the next peer.
func (l *Listener) Accept() (Link, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return NewTCPLink(conn, l.sendMeter, l.recvMeter), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.ln.Close() }

// Send writes the frame header and the payload in one writev, without
// copying the payload into a frame buffer.
func (l *tcpLink) Send(m wire.Message) error {
	l.sendMu.Lock()
	l.hdr = m.Header()
	l.vec = [2][]byte{l.hdr[:], m.Payload}
	l.bufs = l.vec[:]
	_, err := l.bufs.WriteTo(l.conn)
	l.vec = [2][]byte{}
	l.sendMu.Unlock()
	if err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	l.sendMeter.Add(m.EncodedSize())
	return nil
}

func (l *tcpLink) Recv() (wire.Message, error) {
	m, err := wire.ReadMessage(l.r)
	if err != nil {
		return wire.Message{}, fmt.Errorf("transport: recv: %w", err)
	}
	l.recvMeter.Add(m.EncodedSize())
	return m, nil
}

func (l *tcpLink) Close() error {
	l.closeOnce.Do(func() { l.closeErr = l.conn.Close() })
	return l.closeErr
}
