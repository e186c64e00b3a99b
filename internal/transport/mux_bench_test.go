package transport

import (
	"context"
	"fmt"
	"testing"

	"dimatch/internal/wire"
)

// statsStation answers every request with a small stats-reply-sized frame,
// as a station answers an ingest or a search with far fewer bytes than it
// was sent, until the link closes.
func statsStation(link Link) {
	reply := make([]byte, 16)
	for {
		msg, err := link.Recv()
		if err != nil {
			return
		}
		if err := link.Send(wire.Message{Kind: wire.KindStatsReply, Request: msg.Request, Payload: reply}); err != nil {
			return
		}
	}
}

// tcpPair returns the two ends of a loopback TCP link.
func tcpPair(b testing.TB) (center, station Link) {
	b.Helper()
	ln, err := Listen("127.0.0.1:0", nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Link, 1)
	go func() {
		l, err := ln.Accept()
		if err != nil {
			b.Error(err)
		}
		accepted <- l
	}()
	center, err = Dial(ln.Addr(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	station = <-accepted
	if station == nil {
		b.FailNow()
	}
	return center, station
}

// BenchmarkMuxRoundtrip is one Mux.Roundtrip, the coordinator's send path,
// over each transport: point is a 370-byte query frame, bulk a 2 MiB frame
// the size of a bulk-load ingest. The station answers with a 28-byte frame.
// B/op shows what the send and the receive copy per exchange.
func BenchmarkMuxRoundtrip(b *testing.B) {
	frames := []struct {
		name string
		size int
	}{{"point", 370}, {"bulk", 2 << 20}}
	links := []struct {
		name string
		pair func(testing.TB) (Link, Link)
	}{
		{"pipe", func(testing.TB) (Link, Link) { return Pipe(nil, nil) }},
		{"tcp", tcpPair},
	}
	for _, l := range links {
		for _, f := range frames {
			b.Run(fmt.Sprintf("%s/%s", l.name, f.name), func(b *testing.B) {
				center, station := l.pair(b)
				go statsStation(station)
				m := NewMux(center)
				defer func() {
					_ = m.Close()
					_ = station.Close()
				}()
				msg := wire.Message{Kind: wire.KindIngest, Payload: make([]byte, f.size-wire.HeaderSize)}
				ctx := context.Background()
				b.SetBytes(int64(f.size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.Roundtrip(ctx, msg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
