package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

func smokeRun(t *testing.T, w *workload, seed int64, trace bool) *result {
	t.Helper()
	res, err := run(context.Background(), runConfig{w: w, seed: seed, seconds: referenceSeconds, trace: trace, smoke: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if len(res.gates) > 0 || res.failed > 0 {
		t.Fatalf("%s seed %d: failed=%d gates=%v", w.name, seed, res.failed, res.gates)
	}
	return res
}

// The same seed must ask the same questions and count the same traffic;
// another seed must ask different ones.
func TestSeedFixesPoolAndCounts(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a, b, c := smokeRun(t, w, 1, false), smokeRun(t, w, 1, false), smokeRun(t, w, 2, false)
			if a.env["pool_digest"] != b.env["pool_digest"] {
				t.Errorf("same seed, pool digests %v and %v", a.env["pool_digest"], b.env["pool_digest"])
			}
			if a.env["pool_digest"] == c.env["pool_digest"] {
				t.Errorf("seeds 1 and 2 share pool digest %v", a.env["pool_digest"])
			}
			for _, name := range []string{"bytes_per_query", "msgs_per_query", "recall"} {
				if a.metrics[name] != b.metrics[name] {
					t.Errorf("same seed, %s = %v and %v", name, a.metrics[name], b.metrics[name])
				}
			}
			if a.attempted != b.attempted {
				t.Errorf("same seed, attempted %d and %d", a.attempted, b.attempted)
			}
		})
	}
}

// Every name BENCHMARK.json declares is printed exactly once, with its
// unit, by the run that owes it; and the file lists this package's
// workloads with their reasons.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit, Better string }
	var sp struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the package has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	w, err := workloadByName("ingest_mixed")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		trace      bool
		declared   []decl
		defs, also []metricDef
	}{{false, sp.EndToEnd, endToEnd, clientTimed}, {true, sp.PerLayer, perLayer, nil}} {
		var buf bytes.Buffer
		report(&buf, smokeRun(t, w, 1, c.trace), c.defs, c.also)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last struct {
			Correct   bool
			Attempted int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if !last.Correct || last.Attempted < 1 {
			t.Errorf("trace=%v: correct=%v attempted=%d", c.trace, last.Correct, last.Attempted)
		}
		if len(last.Metrics) != len(c.declared) {
			t.Errorf("trace=%v: %d metrics reported, %d declared", c.trace, len(last.Metrics), len(c.declared))
		}
		for i, d := range c.declared {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("name %q is outside the contract's alphabet", d.Name)
			}
			better := "lower"
			if c.defs[i].higher {
				better = "higher"
			}
			if d.Name != c.defs[i].name || d.Unit != c.defs[i].unit || d.Better != better {
				t.Errorf("declared %+v, the package has %+v", d, c.defs[i])
			}
			got, ok := last.Metrics[d.Name]
			if !ok || got.Value == nil || got.Unit != d.Unit {
				t.Errorf("%s: reported %+v, declared unit %q", d.Name, got, d.Unit)
			}
			printed := 0
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) == 3 && f[0] == d.Name && f[2] == d.Unit {
					printed++
				}
			}
			if printed != 1 {
				t.Errorf("%s printed %d times", d.Name, printed)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 40},    // child
		{ID: 2, Parent: 0, Start: 30, End: 60},    // overlaps child 1 by 10
		{ID: 3, Parent: 0, Start: 90, End: 120},   // runs past the root's end
		{ID: 4, Parent: 1, Start: 15, End: 20},    // grandchild: not the root's
		{ID: 5, Parent: -1, Start: 200, End: 230}, // childless root
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got, want[i])
		}
	}
	by := selfByName([]span{
		{ID: 0, Parent: -1, Query: 7, Name: "a", Start: 0, End: 10},
		{ID: 1, Parent: 0, Query: 7, Name: "b", Start: 2, End: 5},
		{ID: 2, Parent: 0, Query: 7, Name: "b", Start: 6, End: 8},
	})
	if by["a"][7] != 5 || by["b"][7] != 5 {
		t.Errorf("self time by name = %v", by)
	}
}

// quartiles must be Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{2, 4, 4, 5, 9})
	if q1 != 3 || q2 != 4 || q3 != 7 {
		t.Errorf("quartiles = %v %v %v, want 3 4 7", q1, q2, q3)
	}
}
