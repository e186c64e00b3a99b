package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one traced query share
// Query; Parent is the ID of the span that caused this one, -1 for a root.
// Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; nothing is written until the run ends, so
// recording a span costs two clock reads and an append.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children's parent.
func (t *tracer) begin(name string, query, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per (query, span name), in nanoseconds: the
// per-query cost of each layer, from which the run reports medians.
func selfByName(spans []span) map[string]map[int]int64 {
	self := selfTimes(spans)
	out := make(map[string]map[int]int64)
	for i, s := range spans {
		m := out[s.Name]
		if m == nil {
			m = make(map[int]int64)
			out[s.Name] = m
		}
		m[s.Query] += self[i]
	}
	return out
}

// write dumps the spans with their self times as one JSON document.
func (t *tracer) write(path string, env map[string]any) error {
	type outSpan struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	out := make([]outSpan, len(t.spans))
	for i, s := range t.spans {
		out[i] = outSpan{span: s, Self: self[i]}
	}
	body, err := json.Marshal(map[string]any{"env": env, "spans": out})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
