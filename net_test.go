package dimatch

import (
	"context"
	"sync"
	"testing"
)

// TestTCPClusterEndToEnd runs a real networked deployment on localhost: a
// data center listening on TCP, three base station goroutines dialing in,
// and a WBF search across them.
func TestTCPClusterEndToEnd(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.Persons = 60
	cfg.Stations = 16
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := StationData(city)

	// A link's meter records that end's sends: accepted (center-side) links
	// carry dissemination, dialed (station-side) links carry reports.
	var downMeter, upMeter Meter
	ln, err := Listen("127.0.0.1:0", &downMeter, &upMeter)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Stations dial in and serve; their IDs travel out of band (the demo
	// convention: dial order == sorted station order).
	ids := make([]uint32, 0, len(data))
	for id := range data {
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	accepted := make(map[uint32]Link, len(ids))
	var acceptErr error
	var acceptWg sync.WaitGroup
	acceptWg.Add(1)
	go func() {
		defer acceptWg.Done()
		for range ids {
			link, err := ln.Accept()
			if err != nil {
				acceptErr = err
				return
			}
			// First frame identifies the station (its reports carry the ID;
			// for the demo we match by dial order).
			accepted[uint32(len(accepted))] = link
		}
	}()

	sorted := append([]uint32(nil), ids...)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	for _, id := range sorted {
		id := id
		link, err := Dial(ln.Addr(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ServeStation(id, data[id], link); err != nil {
				t.Errorf("station %d: %v", id, err)
			}
		}()
	}
	acceptWg.Wait()
	if acceptErr != nil {
		t.Fatal(acceptErr)
	}

	// The accept loop assigned sequential keys in accept order; remap to
	// real station ids by dial order (deterministic here because dials are
	// sequential).
	members := make([]Member, len(sorted))
	for i, id := range sorted {
		members[i] = Member{ID: id, Link: accepted[uint32(i)]}
	}

	c, err := NewCluster(Options{
		Params:   Params{Samples: 8, Epsilon: 1, Seed: 42, PositionSalted: true},
		MinScore: 0.9,
	}, city.Length(), members...)
	if err != nil {
		t.Fatal(err)
	}

	query := QueryFromPerson(city, 1, 0)
	out, err := c.Search(context.Background(), []Query{query}, WithStrategy(StrategyWBF))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Persons(1)) == 0 {
		t.Fatal("TCP search returned nothing")
	}
	found := false
	for _, p := range out.Persons(1) {
		if p == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("reference person missing from their own query's results")
	}
	if out.Cost.BytesUp == 0 {
		t.Fatal("uplink traffic not metered over TCP")
	}

	// A link-backed cluster now reports station storage too, sourced from
	// the stations' own stats replies over the wire.
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.StationsFailed != 0 || st.TotalStorageBytes() == 0 {
		t.Fatalf("stats over TCP: failed=%d bytes=%d", st.StationsFailed, st.TotalStorageBytes())
	}
	if out.Cost.StationRawBytes != st.TotalStorageBytes() {
		t.Fatalf("StationRawBytes %d != stats total %d", out.Cost.StationRawBytes, st.TotalStorageBytes())
	}

	// The cluster grows over live TCP: a brand-new person's first half is
	// ingested into an existing station while a new station dials in with
	// the second half and joins as a link member.
	length := city.Length()
	h1, h2 := make(Pattern, length), make(Pattern, length)
	for i := 0; i < length; i++ {
		v := int64(i%3 + 1)
		h1[i] = v / 2
		h2[i] = v - v/2
	}
	const newPerson PersonID = 999999
	if err := c.Ingest(context.Background(), sorted[0], map[PersonID]Pattern{newPerson: h1}); err != nil {
		t.Fatal(err)
	}
	newLink, err := Dial(ln.Addr(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ServeStation(1000, map[PersonID]Pattern{newPerson: h2}, newLink); err != nil {
			t.Errorf("joined station: %v", err)
		}
	}()
	centerEnd, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddStation(context.Background(), Member{ID: 1000, Link: centerEnd}); err != nil {
		t.Fatal(err)
	}

	grown, err := c.Search(context.Background(), []Query{{ID: 9, Locals: []Pattern{h1, h2}}},
		WithStrategy(StrategyWBF), WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, p := range grown.Persons(9) {
		if p == newPerson {
			found = true
		}
	}
	if !found {
		t.Fatalf("person spanning ingest + joined TCP station not retrieved: %v", grown.Persons(9))
	}

	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // stations exit on shutdown message
}
