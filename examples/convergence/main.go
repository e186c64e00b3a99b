// Convergence: the paper's parameter study of b, the number of sampled
// points per pattern (Section V-B). More samples mean more constraints per
// candidate and fewer false positives — up to the point where accuracy
// stabilizes. The paper observes convergence around b = 5 and stability at
// b = 12, its chosen default.
//
// Run with: go run ./examples/convergence
package main

import (
	"context"
	"fmt"
	"log"

	"dimatch"
)

func main() {
	// Four days of data so the b sweep has room above the paper's stable
	// point of 12.
	cfg := dimatch.DefaultCityConfig()
	cfg.Persons = 120
	cfg.Days = 4
	city, err := dimatch.GenerateCity(cfg)
	if err != nil {
		log.Fatal(err)
	}
	members := dimatch.Members(dimatch.StationData(city))

	// One clean reference person per category.
	var refs []dimatch.PersonID
	for _, cat := range dimatch.Categories() {
		if ref, ok := dimatch.CleanReference(city, cat); ok {
			refs = append(refs, ref)
		}
	}

	fmt.Println("accuracy (F1 against category ground truth) vs sample count b:")
	fmt.Printf("%6s %10s\n", "b", "F1")
	for _, b := range []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16} {
		c, err := dimatch.NewCluster(dimatch.Options{
			Params: dimatch.Params{
				Samples:        b,
				Epsilon:        1,
				Seed:           1,
				PositionSalted: true,
			},
			MinScore: 0.9,
		}, city.Length(), members...)
		if err != nil {
			log.Fatal(err)
		}

		queries := make([]dimatch.Query, len(refs))
		for i, ref := range refs {
			queries[i] = dimatch.QueryFromPerson(city, dimatch.QueryID(i+1), ref)
		}
		out, err := c.Search(context.Background(), queries, dimatch.WithStrategy(dimatch.StrategyWBF))
		if err != nil {
			log.Fatal(err)
		}

		var total dimatch.Confusion
		for i, ref := range refs {
			var retrieved []dimatch.PersonID
			for _, p := range out.Persons(dimatch.QueryID(i + 1)) {
				if p != ref {
					retrieved = append(retrieved, p)
				}
			}
			total.Add(dimatch.Evaluate(retrieved, dimatch.RelevantSet(city, ref)))
		}
		fmt.Printf("%6d %10.3f\n", b, total.F1())

		if err := c.Shutdown(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\n(the paper converges by b=5 and stabilizes by b=12, its default)")
}
