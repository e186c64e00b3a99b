package dimatch

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dimatch/internal/transport"
	"dimatch/internal/wire"
)

// failIngestLink is a center-side link whose ingest frames fail at send time
// while fail is set; every other frame passes.
type failIngestLink struct {
	Link
	fail atomic.Bool
}

func (l *failIngestLink) Send(m wire.Message) error {
	if m.Kind == wire.KindIngest && l.fail.Load() {
		return errors.New("injected ingest send failure")
	}
	return l.Link.Send(m)
}

// TestPulledReplicaIsTheCurrentCopy: a Place whose ingest failed on one
// replica leaves that replica holding the person's old pattern, and nothing
// heals it before the next membership change or Rebalance. The verified and
// naive searches pull raw copies and must take the one the placement table
// recorded, not the first in station order, so they agree with the plain
// WBF answer.
func TestPulledReplicaIsTheCurrentCopy(t *testing.T) {
	ctx := context.Background()
	links := make(map[uint32]Link)
	for _, id := range []uint32{1, 2} {
		center, stationEnd := transport.Pipe(nil, nil)
		go func() { _ = ServeStation(id, nil, stationEnd) }()
		links[id] = center
	}
	stale := &failIngestLink{Link: links[1]}
	links[1] = stale
	c, err := NewCluster(testOptions(), 3, linkMembers(links)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown() })

	if err := c.Place(ctx, map[PersonID]Pattern{5: {10, 20, 30}}, WithReplication(2)); err != nil {
		t.Fatal(err)
	}
	stale.fail.Store(true)
	unplaced, err := c.place(ctx, map[PersonID]Pattern{5: {70, 80, 90}}, WithReplication(2))
	if err == nil || len(unplaced) != 0 {
		t.Fatalf("second Place: unplaced %v, err %v; want station 1's ingest to fail and person 5 placed", unplaced, err)
	}

	queries := []Query{{ID: 1, Locals: []Pattern{{70, 80, 90}}}}
	for _, opts := range [][]SearchOption{
		{WithStrategy(StrategyWBF)},
		{WithStrategy(StrategyWBF), WithVerify(true)},
		{WithStrategy(StrategyNaive)},
	} {
		out, err := c.Search(ctx, queries, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Persons(1); len(got) != 1 || got[0] != 5 {
			t.Fatalf("%v (verify %v): persons = %v, want [5]", out.Strategy, len(opts) > 1, got)
		}
	}
}
