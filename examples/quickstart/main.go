// Quickstart: the paper's running example (Section IV) end to end.
//
// The query pattern set is the global pattern {3,4,5} with local patterns
// {1,2,3} and {2,2,2}. Five residents are spread over three base stations:
//
//   - person 10 splits exactly like the query ({1,2,3} + {2,2,2}) — a true
//     match assembled from two stations, weight 1;
//   - person 11 holds the whole global pattern at one station — weight 1;
//   - person 12 has {3,4,5} at all three stations (the paper's
//     counterexample: aggregate {9,12,15}), deleted by the sum>1 rule;
//   - person 13 is unrelated;
//   - person 14 has only the first local piece — a partial match, weight ½.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"dimatch"
)

func main() {
	// One member per base station, each holding its residents' 3-interval
	// local patterns.
	c, err := dimatch.NewCluster(dimatch.Options{
		Params: dimatch.Params{Samples: 3, Epsilon: 0, Seed: 42},
	}, 3,
		dimatch.Member{ID: 0, Patterns: map[dimatch.PersonID]dimatch.Pattern{
			10: {1, 2, 3},
			12: {3, 4, 5},
			13: {7, 1, 9},
			14: {1, 2, 3},
		}},
		dimatch.Member{ID: 1, Patterns: map[dimatch.PersonID]dimatch.Pattern{
			10: {2, 2, 2},
			12: {3, 4, 5},
		}},
		dimatch.Member{ID: 2, Patterns: map[dimatch.PersonID]dimatch.Pattern{
			11: {3, 4, 5},
			12: {3, 4, 5},
		}},
	)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown() //nolint:errcheck // example teardown

	query := dimatch.Query{
		ID:     1,
		Locals: []dimatch.Pattern{{1, 2, 3}, {2, 2, 2}},
	}
	// Search is context-aware: pass a deadline or cancellation as needed.
	// With no options it runs the WBF strategy under the cluster defaults.
	out, err := c.Search(context.Background(), []dimatch.Query{query})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("DI-matching results for global pattern {3,4,5}:")
	for _, r := range out.PerQuery[1] {
		fmt.Printf("  person %-3d weight %d/%d = %.2f  (reported by %d station(s))\n",
			r.Person, r.Numerator, r.Denominator, r.Score(), r.Stations)
	}
	fmt.Printf("\ntraffic: %d B disseminated, %d B reported back\n",
		out.Cost.BytesDown, out.Cost.BytesUp)
	fmt.Println("note: person 12 (three whole copies, aggregate {9,12,15}) was deleted by the weight-sum rule")
}
