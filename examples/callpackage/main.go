// Callpackage: the paper's motivating scenario (Section I). A mobile
// service provider wants to promote a call package to customers whose
// communication patterns resemble a preferred customer's. The customer's
// data — like everyone's — is scattered across the base stations they pass,
// so the provider runs DI-matching over a synthetic city and compares the
// three strategies on accuracy and cost.
//
// Run with: go run ./examples/callpackage
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"dimatch"
)

func main() {
	// A synthetic city: 310 labelled persons (the paper's study size) over
	// 64 base stations, two days of 6-hour intervals.
	cfg := dimatch.DefaultCityConfig()
	city, err := dimatch.GenerateCity(cfg)
	if err != nil {
		log.Fatal(err)
	}

	c, err := dimatch.NewCluster(dimatch.Options{
		Params:   dimatch.Params{Samples: 8, Epsilon: 1, Seed: 7, PositionSalted: true},
		MinScore: 0.9,
	}, city.Length(), dimatch.Members(dimatch.StationData(city))...)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown() //nolint:errcheck // example teardown

	// The preferred customer: person 0, an office worker. Their per-station
	// local patterns form the query; everyone sharing their category is the
	// ground-truth relevant set.
	const preferred = dimatch.PersonID(0)
	query := dimatch.QueryFromPerson(city, 1, preferred)
	relevant := dimatch.RelevantSet(city, preferred)
	fmt.Printf("preferred customer %d has data at %d stations; %d persons share their segment\n\n",
		preferred, len(query.Locals), len(relevant))

	// The three strategies run concurrently over the same cluster: each
	// Search multiplexes its own requests over the shared station links and
	// gets back only its own replies.
	strategies := []dimatch.Strategy{dimatch.StrategyNaive, dimatch.StrategyBF, dimatch.StrategyWBF}
	outcomes := make([]*dimatch.Outcome, len(strategies))
	var wg sync.WaitGroup
	for i, strat := range strategies {
		i, strat := i, strat
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := c.Search(context.Background(), []dimatch.Query{query}, dimatch.WithStrategy(strat))
			if err != nil {
				log.Fatal(err)
			}
			outcomes[i] = out
		}()
	}
	wg.Wait()

	for i, strat := range strategies {
		out := outcomes[i]
		var retrieved []dimatch.PersonID
		for _, p := range out.Persons(1) {
			if p != preferred {
				retrieved = append(retrieved, p)
			}
		}
		score := dimatch.Evaluate(retrieved, relevant)
		fmt.Printf("%-6s retrieved %3d customers  %v\n", strat, len(retrieved), score)
		fmt.Printf("       traffic %6d B up / %8d B down, center storage %8d B, %v\n",
			out.Cost.BytesUp, out.Cost.BytesDown, out.Cost.CenterStorageBytes, out.Cost.Elapsed)
	}

	fmt.Println("\nnaive ships every pattern and answers the exact ε-query (stricter than the")
	fmt.Println("labelled segment, hence its low recall against segment ground truth); BF cannot")
	fmt.Println("verify its candidates; WBF sends only (ID, weight) pairs and recovers the segment")
}
