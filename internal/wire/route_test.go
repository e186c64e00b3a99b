package wire

import (
	"encoding/hex"
	"errors"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
)

// workedRouteQuery reconstructs the docs/WIRE.md worked route-query frame
// from the live encoder; TestWorkedRouteHex pins the documented hex to it.
func workedRouteQuery(t *testing.T) Message {
	t.Helper()
	m, err := EncodeRouteQuery(RouteQuery{
		Queries: []core.Query{{
			ID:     7,
			Locals: []pattern.Pattern{{1, 2, 0, 1}, {0, 1, 1, 2}},
		}},
		TargetFP:  0.01,
		BatchSize: 0,
		Routing:   0,
	})
	if err != nil {
		t.Fatalf("EncodeRouteQuery: %v", err)
	}
	return m.WithRequest(42)
}

func workedRouteReply() Message {
	return EncodeRouteReply(RouteReply{
		Region:  3,
		Probes:  5,
		Pruned:  2,
		Visited: 1,
		Failed:  0,
		Hops:    1,
		Results: []RouteResult{{Query: 7, Person: 9, Numerator: 12, Denominator: 12, Stations: 1}},
	}).WithRequest(42)
}

// TestWorkedRouteHex pins the docs/WIRE.md worked route frames to the live
// encoders, so the documentation cannot drift from the code.
func TestWorkedRouteHex(t *testing.T) {
	if got := hex.EncodeToString(workedRouteQuery(t).Encode()); got != workedRouteQueryHex {
		t.Fatalf("route-query worked frame drifted:\n got %s\nwant %s", got, workedRouteQueryHex)
	}
	if got := hex.EncodeToString(workedRouteReply().Encode()); got != workedRouteReplyHex {
		t.Fatalf("route-reply worked frame drifted:\n got %s\nwant %s", got, workedRouteReplyHex)
	}
}

// TestRouteQueryRoundtrip pins the full delegated-round codec.
func TestRouteQueryRoundtrip(t *testing.T) {
	in := RouteQuery{
		Queries: []core.Query{
			{ID: 3, Locals: []pattern.Pattern{{5, 0, 2}, {1, 1, 1}}},
			{ID: 9, Locals: []pattern.Pattern{{2, 2, 2}}},
		},
		Params:    core.Params{Bits: 128, Hashes: 3, Samples: 3, Epsilon: 1, Tolerance: 1, Seed: 0xabc, PositionSalted: true},
		TargetFP:  0.02,
		BatchSize: 4,
		Routing:   1,
	}
	m, err := EncodeRouteQuery(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if m.Kind != KindRouteQuery {
		t.Fatalf("kind = %v", m.Kind)
	}
	out, err := DecodeRouteQuery(Message{Kind: KindRouteQuery, Payload: m.Payload})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Queries) != 2 || out.Queries[0].ID != 3 || out.Queries[1].ID != 9 {
		t.Fatalf("queries changed: %+v", out.Queries)
	}
	for i, q := range out.Queries {
		if len(q.Locals) != len(in.Queries[i].Locals) {
			t.Fatalf("query %d locals changed", i)
		}
		for j, l := range q.Locals {
			for g, v := range l {
				if in.Queries[i].Locals[j][g] != v {
					t.Fatalf("query %d local %d pos %d: %d", i, j, g, v)
				}
			}
		}
	}
	if out.Params != in.Params || out.TargetFP != in.TargetFP || out.BatchSize != in.BatchSize || out.Routing != in.Routing {
		t.Fatalf("knobs changed: %+v", out)
	}

	// Oversized and empty batches are rejected.
	if _, err := EncodeRouteQuery(RouteQuery{}); err == nil {
		t.Fatal("empty route query encoded")
	}
	big := RouteQuery{Queries: make([]core.Query, MaxBatchQueries+1)}
	if _, err := EncodeRouteQuery(big); err == nil {
		t.Fatal("oversized route query encoded")
	}
	// The decoder refuses what the encoder refuses: an all-zero payload is a
	// well-formed round of zero queries.
	if _, err := DecodeRouteQuery(Message{Kind: KindRouteQuery, Payload: make([]byte, 32)}); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("zero-query round: err = %v, want ErrBatchMismatch", err)
	}
}

// TestRouteReplyRoundtrip pins the region-answer codec, including negative
// partials (zigzag).
func TestRouteReplyRoundtrip(t *testing.T) {
	in := RouteReply{
		Region: 11,
		Probes: 99,
		Pruned: 3, Visited: 5, Failed: 1, Hops: 2,
		Results: []RouteResult{
			{Query: 1, Person: 2, Numerator: -4, Denominator: 12, Stations: 2},
			{Query: 1, Person: 7, Numerator: 12, Denominator: 12, Stations: 1},
		},
	}
	m := EncodeRouteReply(in)
	out, err := DecodeRouteReply(Message{Kind: KindRouteReply, Payload: m.Payload})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Region != in.Region || out.Probes != in.Probes || out.Pruned != in.Pruned ||
		out.Visited != in.Visited || out.Failed != in.Failed || out.Hops != in.Hops {
		t.Fatalf("counters changed: %+v", out)
	}
	if len(out.Results) != 2 || out.Results[0] != in.Results[0] || out.Results[1] != in.Results[1] {
		t.Fatalf("results changed: %+v", out.Results)
	}
}
