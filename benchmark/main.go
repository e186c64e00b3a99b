// Command benchmark is the repository's one repeatable benchmark: it runs a
// named workload for one seed against a cluster inside this process
// (loopback TCP links, station goroutines, one closed-loop caller), prints
// every metric by name with its unit, checks that the answers are correct
// and exits non-zero if they are not. See README.md beside this file.
//
//	go run ./benchmark -workload city_fanout -seed 1 -seconds 18 -trace 0
//	go run ./benchmark -calibrate 10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: point_routed, city_fanout, batch_verify, ingest_mixed")
		seed      = flag.Int64("seed", 1, "seed of the query pool, the upsert stream and their order")
		seconds   = flag.Int("seconds", referenceSeconds, "measured time the op counts are sized for")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced replay and per-layer metrics")
		scale     = flag.String("scale", "full", "full, or smoke for the test-sized datasets")
		outDir    = flag.String("out", "benchmark/out", "directory for trace files and scratch WAL directories")
		calibrate = flag.Int("calibrate", 0, "run two alternating sets of N runs per workload and compare them with the bounds in BENCHMARK.json")
	)
	flag.Parse()
	// A signal cancels the run, so the deferred clean-up (cluster shutdown,
	// scratch directory removal) still happens.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := 0
	switch {
	case *calibrate > 0:
		code = calibrateMain(ctx, *calibrate, *seconds, *outDir)
	default:
		code = runMain(ctx, *name, *seed, *seconds, *trace == 1, *scale == "smoke", *outDir)
	}
	cancel()
	os.Exit(code)
}

func runMain(ctx context.Context, name string, seed int64, seconds int, trace, smoke bool, outDir string) int {
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res, err := run(ctx, runConfig{w: w, seed: seed, seconds: seconds, trace: trace, smoke: smoke, outDir: outDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if trace {
		report(os.Stdout, res, perLayer, nil)
	} else {
		report(os.Stdout, res, endToEnd, clientTimed)
	}
	if len(res.gates) > 0 {
		return 1
	}
	return 0
}

// report prints the env block, one line per metric, the failed gates, and
// as the last line the JSON object the driver reads, which holds defs. The
// metrics of also are printed and left out of the object.
func report(out io.Writer, res *result, defs, also []metricDef) {
	keys := make([]string, 0, len(res.env))
	for k := range res.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "env %-22s %v\n", k, res.env[k])
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		fmt.Fprintf(out, "%-38s %14.6g %s\n", d.name, res.metrics[d.name], d.unit)
		metrics[d.name] = value{res.metrics[d.name], d.unit}
	}
	for _, d := range also {
		fmt.Fprintf(out, "%-38s %14.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
	for _, g := range res.gates {
		fmt.Fprintln(out, "FAILED GATE:", g)
	}
	last, err := json.Marshal(map[string]any{
		"correct": len(res.gates) == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings always marshal
	}
	fmt.Fprintln(out, string(last))
}
