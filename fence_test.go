package dimatch

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"dimatch/internal/placement"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// holdLink is a center-side link that can hold one kind of frame each way
// without blocking the others. A frame of the send kind is deferred until
// the send gate closes and reaches the station behind the frames sent after
// it; a frame of the receive kind is handed to the center only once the
// receive gate closes. It reports each held frame on held, each batch reply
// received on replied, and closes evicted once an evict frame has been sent.
type holdLink struct {
	Link
	mu                 sync.Mutex // serializes the sends to Link, guards the gates
	sendKind, recvKind wire.Kind
	sendGate, recvGate chan struct{}
	held               chan wire.Kind
	replied            chan struct{}
	evicted            chan struct{}
	evictOnce          sync.Once
	pumpOnce           sync.Once
	in                 chan received
	released           chan wire.Message
	closed             chan struct{}
	closeOnce          sync.Once
}

type received struct {
	m   wire.Message
	err error
}

// newHoldLink wraps l. held has room for every frame a test holds, and a
// batch reply nobody awaits on replied is not reported.
func newHoldLink(l Link) *holdLink {
	return &holdLink{Link: l, held: make(chan wire.Kind, 8), replied: make(chan struct{}, 8), evicted: make(chan struct{}),
		in: make(chan received), released: make(chan wire.Message), closed: make(chan struct{})}
}

func (l *holdLink) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return l.Link.Close()
}

// holdSends defers the frames of kind k sent from now on until gate closes.
func (l *holdLink) holdSends(k wire.Kind, gate chan struct{}) {
	l.mu.Lock()
	l.sendKind, l.sendGate = k, gate
	l.mu.Unlock()
}

// holdReceipts holds the frames of kind k received from now on until gate
// closes.
func (l *holdLink) holdReceipts(k wire.Kind, gate chan struct{}) {
	l.mu.Lock()
	l.recvKind, l.recvGate = k, gate
	l.mu.Unlock()
}

func (l *holdLink) Send(m wire.Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if gate := l.sendGate; gate != nil && m.Kind == l.sendKind {
		m.Payload = slices.Clone(m.Payload) // the sender may reuse its buffer
		go func() {
			<-gate
			l.mu.Lock()
			defer l.mu.Unlock()
			_ = l.Link.Send(m)
		}()
		l.held <- m.Kind
		return nil
	}
	err := l.Link.Send(m)
	if m.Kind == wire.KindEvict {
		l.evictOnce.Do(func() { close(l.evicted) })
	}
	return err
}

func (l *holdLink) Recv() (wire.Message, error) {
	l.pumpOnce.Do(func() { go l.pump() })
	select {
	case r := <-l.in:
		return r.m, r.err
	case m := <-l.released:
		return m, nil
	case <-l.closed:
		return wire.Message{}, transport.ErrClosed
	}
}

// pump reads the station's frames, holding back those of the receive kind.
func (l *holdLink) pump() {
	for {
		m, err := l.Link.Recv()
		if err == nil {
			l.mu.Lock()
			gate := l.recvGate
			if m.Kind != l.recvKind {
				gate = nil
			}
			l.mu.Unlock()
			if gate != nil {
				l.held <- m.Kind
				go func() {
					<-gate
					select {
					case l.released <- m:
					case <-l.closed:
					}
				}()
				continue
			}
			if m.Kind == wire.KindBatchReply {
				select {
				case l.replied <- struct{}{}:
				default:
				}
			}
		}
		select {
		case l.in <- received{m, err}:
		case <-l.closed:
			return
		}
		if err != nil {
			return
		}
	}
}

// holdCluster serves six empty stations over holdLinks and places patterns
// on them at R=2. Every gate it is handed is closed at cleanup, so no held
// frame outlives the test.
func holdCluster(t *testing.T, patterns map[PersonID]Pattern) (*Cluster, map[uint32]*holdLink) {
	t.Helper()
	links := make(map[uint32]*holdLink)
	var members []Member
	for id := uint32(1); id <= 6; id++ {
		center, end := transport.Pipe(nil, nil)
		st, err := newStation(id, nil, end, nil)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = st.Serve() }()
		links[id] = newHoldLink(center)
		members = append(members, Member{ID: id, Link: links[id]})
	}
	c, err := NewCluster(placedOptions(), 3, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })
	if err := c.Place(context.Background(), patterns, WithReplication(2)); err != nil {
		t.Fatal(err)
	}
	return c, links
}

// newGate returns a channel that cleanup closes if the test has not.
func newGate(t *testing.T) chan struct{} {
	g := make(chan struct{})
	t.Cleanup(func() { openGate(g) })
	return g
}

func openGate(g chan struct{}) {
	select {
	case <-g:
	default:
		close(g)
	}
}

// departure finds a person p and one of its holders v such that, with v
// gone, p's other holder x stays in p's replica set (stays) or leaves it.
func departure(t *testing.T, ids []uint32, stays bool) (p PersonID, v, x uint32) {
	t.Helper()
	for p = 1; p <= 10000; p++ {
		holders := placement.Pick(p, ids, 2)
		rest := slices.DeleteFunc(slices.Clone(ids), func(id uint32) bool { return id == holders[0] })
		if slices.Contains(placement.Pick(p, rest, 2), holders[1]) == stays {
			return p, holders[0], holders[1]
		}
	}
	t.Fatal("no such person")
	return 0, 0, 0
}

// fenceScenario places one person p, of pattern pat, on six stations and
// starts a full fan-out search for it whose frames to p's holder v and to
// its other holder x wait for a gate, where v's departure moves p off x. It
// returns once every other station has answered the search, so the stations
// p moves to have been read before its copy lands.
func fenceScenario(t *testing.T, g chan struct{}) (c *Cluster, links map[uint32]*holdLink, p PersonID, v, x uint32, out <-chan *Outcome) {
	t.Helper()
	p, v, x = departure(t, []uint32{1, 2, 3, 4, 5, 6}, false)
	pat := Pattern{11, 22, 33}
	c, links = holdCluster(t, map[PersonID]Pattern{p: pat})
	links[v].holdSends(wire.KindBatchQuery, g)
	links[x].holdSends(wire.KindBatchQuery, g)
	res := make(chan *Outcome, 1)
	go func() {
		o, err := c.Search(context.Background(), []Query{{ID: 1, Locals: []Pattern{pat}}}, WithRouting(RoutingFull))
		if err != nil {
			t.Error(err)
		}
		res <- o
	}()
	<-links[v].held
	<-links[x].held
	for id, l := range links {
		if id != v && id != x {
			<-l.replied
		}
	}
	return c, links, p, v, x, res
}

// stationHolds reports whether station id holds person p, by a dump through
// the cluster's mux.
func stationHolds(t *testing.T, c *Cluster, id uint32, p PersonID) bool {
	t.Helper()
	_, ok := dumpStation(t, c, id)[p]
	return ok
}

// found reports whether o answered query 1 with person p at score 1.
func found(o *Outcome, p PersonID) bool {
	return o != nil && slices.ContainsFunc(o.PerQuery[1], func(r Result) bool { return r.Person == p && r.Score() == 1 })
}

// TestRebalanceEvictWaitsForSearches: a search reads p's new holders before
// the departure heal copies p there, and its exchange with p's old holder
// is held until the heal's evict to that holder is sent (or one second
// passes). Without the fence the evict overtakes the held exchange and the
// search, which saw no failure it could recover from, misses p; with it
// the evict waits for the search, which finds p on the old holder.
func TestRebalanceEvictWaitsForSearches(t *testing.T) {
	g := newGate(t)
	c, links, p, v, x, out := fenceScenario(t, g)
	go func() {
		select {
		case <-links[x].evicted:
		case <-time.After(time.Second):
		}
		openGate(g)
	}()
	if err := c.RemoveStation(context.Background(), v); err != nil {
		t.Fatal(err)
	}
	if o := <-out; !found(o, p) {
		t.Fatalf("a search racing the departure heal missed person %d", p)
	}
	if stationHolds(t, c, x, p) {
		t.Fatalf("station %d still holds person %d after the heal", x, p)
	}
	if _, _, _, ok := c.groupView(c.currentEpoch()); !ok {
		t.Fatal("the heal left the layout unclean")
	}
}

// TestRebalanceFenceTimesOut: a search held past the heal's context keeps
// the stale copy where it is. RemoveStation still returns, the layout is
// left unclean, and the next Rebalance evicts the copy and restores a clean
// layout.
func TestRebalanceFenceTimesOut(t *testing.T) {
	g := newGate(t)
	c, _, p, v, x, out := fenceScenario(t, g)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := c.RemoveStation(ctx, v); err != nil {
		t.Fatal(err)
	}
	if !stationHolds(t, c, x, p) {
		t.Fatalf("the heal evicted person %d from station %d under a search it did not wait for", p, x)
	}
	if _, _, _, ok := c.groupView(c.currentEpoch()); ok {
		t.Fatal("the layout is clean with the stale copy in place")
	}
	openGate(g)
	if o := <-out; !found(o, p) {
		t.Fatalf("the held search missed person %d", p)
	}
	rep, err := c.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed != 1 || rep.Copied != 0 || stationHolds(t, c, x, p) {
		t.Fatalf("the next Rebalance = %+v, want the stale copy on station %d evicted and nothing copied", rep, x)
	}
	if _, _, _, ok := c.groupView(c.currentEpoch()); !ok {
		t.Fatal("the next Rebalance left the layout unclean")
	}
}

// TestRoutedPlanReadsLayoutBeforeDigests: a routed search fetches the
// digests while a departure heal is copying person p to a new holder n, and
// n's digest, read before the copy, reaches the planner only after the heal
// has recorded its clean layout. Planning with that layout and that digest
// would skip p's new group, whose every member must admit, and visit only
// the group of another person q; the planner reads the layout first, finds
// it unclean and visits every station that admits.
func TestRoutedPlanReadsLayoutBeforeDigests(t *testing.T) {
	ids := []uint32{1, 2, 3, 4, 5, 6}
	p, v, a := departure(t, ids, true)
	rest := slices.DeleteFunc(slices.Clone(ids), func(id uint32) bool { return id == v })
	n := slices.DeleteFunc(placement.Pick(p, rest, 2), func(id uint32) bool { return id == a })[0]
	var q PersonID // a person whose group the departure leaves alone
	for q = 1; q <= 10000; q++ {
		g := placement.Pick(q, ids, 2)
		if slices.Equal(g, placement.Pick(q, rest, 2)) && !slices.ContainsFunc(g, func(id uint32) bool { return id == v || id == a || id == n }) {
			break
		}
	}
	pats := map[PersonID]Pattern{p: {11, 22, 33}, q: {44, 55, 66}}
	c, links := holdCluster(t, pats)

	pull, digest := newGate(t), newGate(t)
	links[a].holdSends(wire.KindDump, pull)
	links[n].holdReceipts(wire.KindSummaryReply, digest)
	removed := make(chan error, 1)
	go func() { removed <- c.RemoveStation(context.Background(), v) }()
	<-links[a].held // the heal waits at its pull
	out := make(chan *Outcome, 1)
	go func() {
		o, err := c.Search(context.Background(), []Query{{ID: 1, Locals: []Pattern{pats[p]}}, {ID: 2, Locals: []Pattern{pats[q]}}})
		if err != nil {
			t.Error(err)
		}
		out <- o
	}()
	<-links[n].held // n answered the digest fetch before the copy
	openGate(pull)
	if err := <-removed; err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := c.groupView(c.currentEpoch()); !ok {
		t.Fatal("the heal left the layout unclean")
	}
	openGate(digest)
	if o := <-out; !found(o, p) {
		t.Fatalf("a routed search racing the heal missed person %d: %+v", p, o.PerQuery)
	}
}
