// Tcpcluster: a genuinely distributed deployment on localhost. The data
// center listens on a TCP socket; four base stations dial in from their own
// goroutines (in production they would be separate processes — see
// cmd/di-cluster for that variant); a WBF search runs over real sockets
// with the same byte accounting as the in-process simulation.
//
// Run with: go run ./examples/tcpcluster
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"dimatch"
)

func main() {
	cfg := dimatch.DefaultCityConfig()
	cfg.Persons = 120
	cfg.Stations = 16
	city, err := dimatch.GenerateCity(cfg)
	if err != nil {
		log.Fatal(err)
	}
	data := dimatch.StationData(city)

	// Center side: sends are dissemination, receives are station reports.
	var down, up dimatch.Meter
	ln, err := dimatch.Listen("127.0.0.1:0", &down, &up)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	fmt.Printf("data center listening on %s\n", ln.Addr())

	ids := make([]uint32, 0, len(data))
	for id := range data {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Stations dial in sequentially so accept order matches station order.
	members := make([]dimatch.Member, 0, len(ids))
	var stations sync.WaitGroup
	for _, id := range ids {
		id := id
		stationLink, err := dimatch.Dial(ln.Addr(), nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		centerLink, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		members = append(members, dimatch.Member{ID: id, Link: centerLink})
		stations.Add(1)
		go func() {
			defer stations.Done()
			if err := dimatch.ServeStation(id, data[id], stationLink); err != nil {
				log.Printf("station %d: %v", id, err)
			}
		}()
	}
	fmt.Printf("%d base stations connected over TCP\n\n", len(members))

	c, err := dimatch.NewCluster(dimatch.Options{
		Params:   dimatch.Params{Samples: 8, Epsilon: 1, Seed: 42, PositionSalted: true},
		MinScore: 0.9,
		TopK:     10,
	}, city.Length(), members...)
	if err != nil {
		log.Fatal(err)
	}

	// A real deployment bounds every search: if stations stall, the context
	// deadline abandons the round without poisoning the links.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const ref = dimatch.PersonID(3)
	out, err := c.Search(ctx, []dimatch.Query{dimatch.QueryFromPerson(city, 1, ref)},
		dimatch.WithStrategy(dimatch.StrategyWBF))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top matches for person %d:\n", ref)
	for _, r := range out.PerQuery[1] {
		fmt.Printf("  person %-4d weight %.3f (%d stations)\n", r.Person, r.Score(), r.Stations)
	}
	fmt.Printf("\nover the wire: %d B disseminated, %d B of reports, elapsed %v\n",
		out.Cost.BytesDown, out.Cost.BytesUp, out.Cost.Elapsed)

	if err := c.Shutdown(); err != nil {
		log.Fatal(err)
	}
	stations.Wait()
	fmt.Println("all stations shut down cleanly")
}
