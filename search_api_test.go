package dimatch

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestConcurrentSearchesPublicAPI is the acceptance check at the public
// surface: two concurrent Search calls with different strategies and
// per-call options over one city cluster return exactly their sequential
// results. Run under -race in CI.
func TestConcurrentSearchesPublicAPI(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.Persons = 60
	cfg.Stations = 25
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Options{
		Params:   Params{Samples: 8, Epsilon: 1, Seed: 42, PositionSalted: true},
		MinScore: 0.9,
	}, StationData(city))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown() //nolint:errcheck // test teardown

	query := QueryFromPerson(city, 1, 0)
	calls := []struct {
		name string
		opts []SearchOption
	}{
		{"wbf-top5", []SearchOption{WithStrategy(StrategyWBF), WithTopK(5)}},
		{"naive-all", []SearchOption{WithStrategy(StrategyNaive), WithMinScore(0)}},
	}

	sequential := make([][]PersonID, len(calls))
	for i, call := range calls {
		out, err := c.Search(context.Background(), []Query{query}, call.opts...)
		if err != nil {
			t.Fatalf("%s sequential: %v", call.name, err)
		}
		sequential[i] = out.Persons(1)
	}

	var wg sync.WaitGroup
	concurrent := make([][]PersonID, len(calls))
	errs := make([]error, len(calls))
	for i, call := range calls {
		i, call := i, call
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := c.Search(context.Background(), []Query{query}, call.opts...)
			if err != nil {
				errs[i] = err
				return
			}
			concurrent[i] = out.Persons(1)
		}()
	}
	wg.Wait()
	for i, call := range calls {
		if errs[i] != nil {
			t.Fatalf("%s concurrent: %v", call.name, errs[i])
		}
		if len(concurrent[i]) != len(sequential[i]) {
			t.Fatalf("%s: concurrent %v != sequential %v", call.name, concurrent[i], sequential[i])
		}
		for j := range concurrent[i] {
			if concurrent[i][j] != sequential[i][j] {
				t.Fatalf("%s: concurrent %v != sequential %v", call.name, concurrent[i], sequential[i])
			}
		}
	}
}

// TestSearchCancelledContextPublicAPI checks the sentinel surface: a
// pre-cancelled context returns ErrCancelled wrapping context.Canceled, and
// the cluster keeps working afterwards.
func TestSearchCancelledContextPublicAPI(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.Persons = 30
	cfg.Stations = 16
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Options{
		Params: Params{Samples: 8, Epsilon: 1, Seed: 7, PositionSalted: true},
	}, StationData(city))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown() //nolint:errcheck // test teardown

	query := QueryFromPerson(city, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Search(ctx, []Query{query}); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if _, err := c.Search(context.Background(), []Query{query}); err != nil {
		t.Fatalf("search after cancelled call: %v", err)
	}
	if _, err := c.Search(context.Background(), nil); !errors.Is(err, ErrNoQueries) {
		t.Fatalf("err = %v, want ErrNoQueries", err)
	}
}

// TestParseStrategyPublic pins the re-exported parser.
func TestParseStrategyPublic(t *testing.T) {
	s, err := ParseStrategy("bf")
	if err != nil || s != StrategyBF {
		t.Fatalf("ParseStrategy(bf) = %v, %v", s, err)
	}
	if _, err := ParseStrategy("nope"); !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("err = %v, want ErrUnknownStrategy", err)
	}
}
