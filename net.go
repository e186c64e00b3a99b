package dimatch

import "dimatch/internal/transport"

// Networked-deployment vocabulary: the same data center logic can drive
// base stations over real TCP connections instead of in-process pipes.
type (
	// Link is one end of an ordered message pipe between the data center
	// and a base station.
	Link = transport.Link
	// Meter counts traffic crossing a set of links.
	Meter = transport.Meter
	// Listener accepts station connections on the data center side.
	Listener = transport.Listener
)

// Listen starts a TCP listener for incoming station links (e.g.
// "127.0.0.1:0"). Accepted links record their sends (dissemination) on
// sendMeter and their receives (station reports) on recvMeter; either may
// be nil.
func Listen(addr string, sendMeter, recvMeter *Meter) (*Listener, error) {
	return transport.Listen(addr, sendMeter, recvMeter)
}

// Dial connects a base station to the data center, metering this end's
// sends and receives (either meter may be nil).
func Dial(addr string, sendMeter, recvMeter *Meter) (Link, error) {
	return transport.Dial(addr, sendMeter, recvMeter)
}

// NewClusterWithLinks is NewCluster over one link Member per entry of links.
// It exists only for the benchmark/ harness, which calls it; everything else
// passes link Members to NewCluster. The meters are not used: the links
// already record into whatever meters they were made with.
func NewClusterWithLinks(opts Options, links map[uint32]Link, patternLength int, _, _ *Meter) (*Cluster, error) {
	members := make([]Member, 0, len(links))
	for id, link := range links {
		members = append(members, Member{ID: id, Link: link})
	}
	return NewCluster(opts, patternLength, members...)
}

// ServeStation runs a memory-only base station over an established link
// until the center sends a shutdown or the link closes — the body of a
// remote station process.
func ServeStation(id uint32, locals map[PersonID]Pattern, link Link) error {
	return ServeStoredStation(id, locals, link, nil)
}
