package dimatch

import (
	"context"
	"errors"
	"net"
	"testing"

	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// TestForeignVersionPeerIsCountedFailed: a peer that passed the join
// handshake and then stamps its frames with a version this codec does not
// speak is refused at its first such reply. The search neither hangs nor
// panics: the peer is counted in StationsFailed, its link carries the typed
// wire.ErrBadVersion, and the other stations' results are intact.
func TestForeignVersionPeerIsCountedFailed(t *testing.T) {
	goodCenter, goodStation := transport.Pipe(nil, nil)
	go func() {
		_ = ServeStation(1, map[PersonID]Pattern{10: {1, 2, 3}, 11: {3, 4, 5}}, goodStation)
	}()
	// The foreign peer needs a byte-level link: the version lives in the
	// encoded frame, which the in-process pipe never produces.
	centerConn, peerConn := net.Pipe()
	go func() {
		defer peerConn.Close()
		for joined := false; ; joined = true {
			req, err := wire.ReadMessage(peerConn)
			if err != nil || req.Kind == wire.KindShutdown {
				return
			}
			frame := wire.EncodeStatsReply(wire.StatsReply{Station: 2, Length: 3}).WithRequest(req.Request).Encode()
			if joined {
				frame[2] = 3 // what a pre-collapse build stamped on batch frames
			}
			if _, err := peerConn.Write(frame); err != nil {
				return
			}
		}
	}()

	c, err := NewCluster(Options{}, 3, linkMembers(map[uint32]Link{
		1: goodCenter,
		2: transport.NewTCPLink(centerConn, nil, nil),
	})...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	queries := []Query{{ID: 1, Locals: []Pattern{{3, 4, 5}}}}
	out, err := c.Search(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost.StationsFailed != 1 {
		t.Fatalf("StationsFailed = %d, want 1", out.Cost.StationsFailed)
	}
	if got := out.Persons(1); len(got) != 1 || got[0] != 11 {
		t.Fatalf("query 1 persons %v, want [11] from the healthy station", got)
	}
	ep := c.currentEpoch()
	if err := ep.muxes[ep.find(2)].Err(); !errors.Is(err, wire.ErrBadVersion) {
		t.Fatalf("foreign peer's link error = %v, want wire.ErrBadVersion", err)
	}
}
