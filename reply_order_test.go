package dimatch

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dimatch/internal/placement"
	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// replyOrder hands the stations' replies to the center in a chosen order
// once armed: a station's reply waits while a station ahead of it in the
// order has a request in flight, so a round lands in the order among the
// stations it reaches. A reply counts as answered once the center has read
// it and, armed, a millisecond more, which lets it reach the search before
// the next is released. Unarmed, replies pass at once.
type replyOrder struct {
	mu      sync.Mutex
	cond    *sync.Cond
	rank    map[uint32]int // each station's place in the order; nil: unarmed
	pending map[uint32]int // requests sent and not yet answered
}

func newReplyOrder() *replyOrder {
	o := &replyOrder{pending: make(map[uint32]int)}
	o.cond = sync.NewCond(&o.mu)
	return o
}

// arm releases replies in order from now on; nil disarms.
func (o *replyOrder) arm(order []uint32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rank = nil
	if order != nil {
		o.rank = make(map[uint32]int, len(order))
		for i, id := range order {
			o.rank[id] = i
		}
	}
	o.cond.Broadcast()
}

// add counts n more requests in flight to id (n < 0: answered); clear
// drops them all once id's link has failed.
func (o *replyOrder) add(id uint32, n int) {
	o.mu.Lock()
	o.pending[id] = max(o.pending[id]+n, 0)
	o.cond.Broadcast()
	o.mu.Unlock()
}

func (o *replyOrder) clear(id uint32) {
	o.mu.Lock()
	delete(o.pending, id)
	o.cond.Broadcast()
	o.mu.Unlock()
}

// await blocks id's reply while a station ahead of it has a request in
// flight, and reports whether the order was armed.
func (o *replyOrder) await(id uint32) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.rank != nil && o.ahead(id) {
		o.cond.Wait()
	}
	return o.rank != nil
}

func (o *replyOrder) ahead(id uint32) bool {
	for s, n := range o.pending {
		if n > 0 && s != id && o.rank[s] < o.rank[id] {
			return true
		}
	}
	return false
}

// orderLink is a center-side link whose replies pass through a replyOrder.
type orderLink struct {
	Link
	id       uint32
	order    *replyOrder
	answered bool // a reply was read: it is answered at the next Recv
	armed    bool // and it was ordered
}

func (l *orderLink) Send(m wire.Message) error {
	if m.Request == 0 {
		return l.Link.Send(m) // fire and forget: no reply to order
	}
	l.order.add(l.id, 1) // before the station can answer
	err := l.Link.Send(m)
	if err != nil {
		l.order.add(l.id, -1)
	}
	return err
}

func (l *orderLink) Recv() (wire.Message, error) {
	if l.answered {
		if l.armed {
			time.Sleep(time.Millisecond)
		}
		l.answered = false
		l.order.add(l.id, -1)
	}
	m, err := l.Link.Recv()
	if err != nil {
		l.order.clear(l.id) // nothing more will be answered
		return m, err
	}
	l.armed = l.order.await(l.id)
	l.answered = true
	return m, err
}

// orderedCluster serves data's stations in process behind orderLinks that
// share one replyOrder.
func orderedCluster(t *testing.T, opts Options, length int, data map[uint32]map[PersonID]Pattern) (*Cluster, *replyOrder) {
	t.Helper()
	o := newReplyOrder()
	var members []Member
	for id, locals := range data {
		center, end := transport.Pipe(nil, nil)
		st, err := newStation(id, locals, end, nil)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = st.Serve() }()
		members = append(members, Member{ID: id, Link: &orderLink{Link: center, id: id, order: o}})
	}
	c, err := NewCluster(opts, length, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		o.arm(nil)
		_ = c.Shutdown()
	})
	return c, o
}

// replyOrders returns station order, its reverse and two shuffles of ids.
func replyOrders(ids []uint32) [][]uint32 {
	asc := slices.Clone(ids)
	slices.Sort(asc)
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	orders := [][]uint32{asc, desc}
	rng := rand.New(rand.NewSource(7))
	for range 2 {
		s := slices.Clone(asc)
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		orders = append(orders, s)
	}
	return orders
}

// counted is what a search reports that must not depend on reply order.
type counted struct {
	PerQuery                        map[QueryID][]Result
	StationsFailed, ReportsReceived int
	BytesUp, BytesDown              uint64
	MessagesUp, MessagesDown        uint64
}

func countedOf(o *Outcome) counted {
	return counted{o.PerQuery, o.Cost.StationsFailed, o.Cost.ReportsReceived,
		o.Cost.BytesUp, o.Cost.BytesDown, o.Cost.MessagesUp, o.Cost.MessagesDown}
}

// TestRepliesFoldInAnyOrder: a search folds each reply as it lands, and
// what it answers and counts is the same whatever order the stations'
// replies land in. Each case runs on a fresh cluster per order — station
// order, its reverse and two shuffles — and every search must equal station
// order's: (a) capped city WBF searches, the first full-range and the
// second over the learned prefix; (b) a 16-query batch with verification;
// (c) a placed person both of whose copies were overwritten by addressed
// ingests, where verification must judge the lower station's copy; (d) a
// naive search. The city cases run with one station killed, so the failed
// count is exercised too.
func TestRepliesFoldInAnyOrder(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.Persons = 60
	cfg.Stations = 8
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cityData := StationData(city)
	var cityIDs []uint32
	for id := range cityData {
		cityIDs = append(cityIDs, id)
	}
	slices.Sort(cityIDs)
	killed := cityIDs[2]
	alive := slices.DeleteFunc(slices.Clone(cityIDs), func(id uint32) bool { return id == killed })
	queries := make([]Query, 16)
	for i := range queries {
		queries[i] = QueryFromPerson(city, QueryID(i+1), PersonID(i*3))
	}
	params := Params{Samples: 8, Epsilon: 1, Seed: 42, PositionSalted: true}

	// Case (c): person p placed on two of six stations, each copy then
	// overwritten by an addressed ingest; only the lower station's matches.
	placedIDs := []uint32{1, 2, 3, 4, 5, 6}
	const p = PersonID(5)
	holders := placement.Pick(p, placedIDs, 2)
	slices.Sort(holders)
	lower, higher := Pattern{11, 22, 33}, Pattern{70, 1, 90}

	type search func(context.Context, *Cluster) ([]*Outcome, error)
	searches := func(qs []Query, n int, opts ...SearchOption) search {
		return func(ctx context.Context, c *Cluster) ([]*Outcome, error) {
			var outs []*Outcome
			for range n {
				o, err := c.Search(ctx, qs, opts...)
				if err != nil {
					return nil, err
				}
				outs = append(outs, o)
			}
			return outs, nil
		}
	}
	onCity := func(opts Options) func(t *testing.T) (*Cluster, *replyOrder) {
		return func(t *testing.T) (*Cluster, *replyOrder) {
			c, o := orderedCluster(t, opts, city.Length(), cityData)
			if err := c.KillStation(killed); err != nil {
				t.Fatal(err)
			}
			return c, o
		}
	}
	cases := []struct {
		name   string
		ids    []uint32 // the stations whose replies are ordered
		build  func(t *testing.T) (*Cluster, *replyOrder)
		search search
	}{
		{"capped WBF", alive, onCity(Options{Params: params, TopK: 3}), searches(queries[:4], 2)},
		{"batch with verify", alive, onCity(Options{Params: params, MinScore: 0.9}), searches(queries, 1, WithVerify(true))},
		{"overwritten placed copies", placedIDs, func(t *testing.T) (*Cluster, *replyOrder) {
			data := make(map[uint32]map[PersonID]Pattern)
			for _, id := range placedIDs {
				data[id] = nil
			}
			c, o := orderedCluster(t, placedOptions(), 3, data)
			ctx := context.Background()
			if err := c.Place(ctx, map[PersonID]Pattern{p: {5, 5, 5}, p + 1: {6, 6, 6}}); err != nil {
				t.Fatal(err)
			}
			if err := c.Ingest(ctx, holders[0], map[PersonID]Pattern{p: lower}); err != nil {
				t.Fatal(err)
			}
			if err := c.Ingest(ctx, holders[1], map[PersonID]Pattern{p: higher}); err != nil {
				t.Fatal(err)
			}
			return c, o
		}, searches([]Query{{ID: 1, Locals: []Pattern{lower}}}, 1, WithVerify(true), WithRouting(RoutingFull))},
		{"naive", alive, onCity(Options{Params: params, MinScore: 0.9}), searches(queries[:4], 1, WithStrategy(StrategyNaive))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []counted
			for k, order := range replyOrders(tc.ids) {
				c, o := tc.build(t)
				o.arm(order)
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				outs, err := tc.search(ctx, c)
				cancel()
				o.arm(nil)
				if err != nil {
					t.Fatalf("order %v: %v", order, err)
				}
				var got []counted
				for _, out := range outs {
					got = append(got, countedOf(out))
				}
				if k == 0 {
					want = got
					if slices.Equal(tc.ids, placedIDs) && !found(outs[0], p) {
						t.Fatalf("verification did not judge station %d's copy: %+v", holders[0], outs[0].PerQuery)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("replies in order %v:\n%+v\nstation order:\n%+v", order, got, want)
				}
			}
		})
	}
}
