// Command di-bench regenerates the paper's evaluation tables and figures
// (DESIGN.md §4) and prints them as text tables.
//
// Usage:
//
//	di-bench [-run all|fig1a|fig1b|fig3|conv|fig4|table2|salting|tolerance|sizing|resilience|replication|recovery|routing|stream|hierarchy|adaptive] [-quick] [-strategy wbf]
//	di-bench -run replication -replication-out BENCH_replication.json
//	di-bench -replication-check BENCH_replication.json
//	di-bench -run recovery -recovery-out BENCH_recovery.json
//	di-bench -recovery-check BENCH_recovery.json
//	di-bench -run routing -routing-out BENCH_routing.json
//	di-bench -routing-check BENCH_routing.json
//	di-bench -run stream -stream-out BENCH_stream.json
//	di-bench -stream-check BENCH_stream.json
//	di-bench -run hierarchy -hierarchy-out BENCH_hierarchy.json
//	di-bench -hierarchy-check BENCH_hierarchy.json
//	di-bench -run adaptive -adaptive-out BENCH_adaptive.json
//	di-bench -adaptive-check BENCH_adaptive.json
//
// The default -run all executes every experiment at full scale (a few
// minutes); -quick shrinks the workloads for a fast smoke run. -strategy
// selects which strategy the resilience experiment degrades (naive, bf or
// wbf).
//
// -run routing measures the summary-routed search pipeline against full
// fan-out over TCP loopback — selective queries on a replicated
// placement-first deployment at 4/16/64 stations — and, with -routing-out,
// records the result as BENCH_routing.json. -routing-check validates a
// recorded baseline and exits non-zero unless routed searches move fewer
// messages per query than full fan-out at 16+ stations with results and
// recall asserted identical — the CI gate for the routing claim.
//
// -run replication measures search quality on a placement-first deployment
// under station loss at replication factors 1 and 2 — the healthy cluster,
// every single-station kill, and a cumulative kill sweep with self-healing
// re-replication in between — and, with -replication-out, records the
// result as BENCH_replication.json. -replication-check validates a recorded
// baseline and exits non-zero unless killing any single station keeps
// recall at the healthy value for every factor >= 2 — the CI gate for the
// replica guarantee.
//
// -run recovery compares a station restart's two restore paths at 100k
// residents — recovering from the station's own snapshot + WAL
// (internal/store/wal) versus re-replicating the same residents over TCP
// loopback onto an empty station — and, with -recovery-out, records the
// result as BENCH_recovery.json. -recovery-check validates a recorded
// baseline and exits non-zero unless WAL recovery is at least 5x faster
// than re-replication with recall 1.0 and the routing digest byte-identical
// across the restart — the CI gate for the persistence claim.
//
// -run stream exercises the streaming ingest pipeline over TCP loopback —
// sustained block-mode ingest with concurrent searches, TTL churn, and a
// saturated shed-mode pipeline — and, with -stream-out, records the result
// as BENCH_stream.json. -stream-check validates a recorded baseline and
// exits non-zero unless the pipeline sustained 10k+ patterns/sec with
// concurrent-search recall 1 and bounded p99, evicted its whole TTL cohort
// without touching the static population, and demonstrably shed (with exact
// accounting) when saturated — the CI gate for the streaming claim.
//
// -run hierarchy compares flat and two-tier deployments at 256/512/1024
// in-process stations — a root over ~sqrt(N) region coordinators versus one
// flat coordinator over the same stations, searched under every routing mode
// with results asserted identical to flat full fan-out and recall 1 before
// anything is recorded — and, with -hierarchy-out, records the result as
// BENCH_hierarchy.json. -hierarchy-check validates a recorded baseline and
// exits non-zero unless at 1024 stations the hierarchical search evaluates
// at most 0.25·N digest probes per query, no hierarchical coordinator holds
// as much routing state as the flat coordinator, and searches crossed two
// tiers — the CI gate for the hierarchical-routing claim. Note the quick
// run shrinks the sweep below 1024 stations, so its output does not pass
// -hierarchy-check; record the baseline at full scale.
//
// -run adaptive measures the traffic-adaptive parameter rollout on a Zipfian
// traffic mix — at each skew a live cluster is warmed with routed traffic,
// RederiveParams rolls a Daisy-style plan onto every station, and the
// adaptive digests are compared against static ones at exactly equal memory
// — and, with -adaptive-out, records the result as BENCH_adaptive.json.
// -adaptive-check validates a recorded baseline and exits non-zero unless
// every skew cell rolled out to all stations, searched byte-identically to a
// never-adapted twin with recall 1, and made strictly fewer empty-band false
// admissions than static (false routes no worse measured, strictly better by
// the analytic bound) — the CI gate for the adaptivity claim.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dimatch"
	"dimatch/internal/bench"
)

func main() {
	var (
		run              = flag.String("run", "all", "experiment to run: all, fig1a, fig1b, fig3, conv, fig4, table2, salting, tolerance, sizing, resilience, replication, recovery, routing, stream, hierarchy, adaptive")
		quick            = flag.Bool("quick", false, "use reduced workloads (seconds instead of minutes)")
		strategy         = flag.String("strategy", "wbf", "strategy for the resilience experiment (naive, bf, wbf)")
		replicationOut   = flag.String("replication-out", "", "with -run replication: also write the report as JSON to this file")
		replicationCheck = flag.String("replication-check", "", "validate a recorded BENCH_replication.json and exit (no experiments run)")
		recoveryOut      = flag.String("recovery-out", "", "with -run recovery: also write the report as JSON to this file")
		recoveryCheck    = flag.String("recovery-check", "", "validate a recorded BENCH_recovery.json and exit (no experiments run)")
		routingOut       = flag.String("routing-out", "", "with -run routing: also write the report as JSON to this file")
		routingCheck     = flag.String("routing-check", "", "validate a recorded BENCH_routing.json and exit (no experiments run)")
		streamOut        = flag.String("stream-out", "", "with -run stream: also write the report as JSON to this file")
		streamCheck      = flag.String("stream-check", "", "validate a recorded BENCH_stream.json and exit (no experiments run)")
		hierarchyOut     = flag.String("hierarchy-out", "", "with -run hierarchy: also write the report as JSON to this file")
		hierarchyCheck   = flag.String("hierarchy-check", "", "validate a recorded BENCH_hierarchy.json and exit (no experiments run)")
		adaptiveOut      = flag.String("adaptive-out", "", "with -run adaptive: also write the report as JSON to this file")
		adaptiveCheck    = flag.String("adaptive-check", "", "validate a recorded BENCH_adaptive.json and exit (no experiments run)")
	)
	flag.Parse()
	if *replicationCheck != "" {
		if err := checkReplicationFile(*replicationCheck); err != nil {
			fmt.Fprintln(os.Stderr, "di-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid replication baseline\n", *replicationCheck)
		return
	}
	if *recoveryCheck != "" {
		if err := checkRecoveryFile(*recoveryCheck); err != nil {
			fmt.Fprintln(os.Stderr, "di-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid recovery baseline\n", *recoveryCheck)
		return
	}
	if *routingCheck != "" {
		if err := checkRoutingFile(*routingCheck); err != nil {
			fmt.Fprintln(os.Stderr, "di-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid routing baseline\n", *routingCheck)
		return
	}
	if *streamCheck != "" {
		if err := checkStreamFile(*streamCheck); err != nil {
			fmt.Fprintln(os.Stderr, "di-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid stream baseline\n", *streamCheck)
		return
	}
	if *adaptiveCheck != "" {
		if err := checkAdaptiveFile(*adaptiveCheck); err != nil {
			fmt.Fprintln(os.Stderr, "di-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid adaptive baseline\n", *adaptiveCheck)
		return
	}
	if *hierarchyCheck != "" {
		if err := checkHierarchyFile(*hierarchyCheck); err != nil {
			fmt.Fprintln(os.Stderr, "di-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid hierarchy baseline\n", *hierarchyCheck)
		return
	}
	strat, err := dimatch.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "di-bench:", err)
		os.Exit(1)
	}
	if err := runExperiments(*run, *quick, strat, *replicationOut, *recoveryOut, *routingOut, *streamOut, *hierarchyOut, *adaptiveOut); err != nil {
		fmt.Fprintln(os.Stderr, "di-bench:", err)
		os.Exit(1)
	}
}

// checkBaselineFile validates a recorded baseline file with the given
// report checker.
func checkBaselineFile(path string, check func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return fmt.Errorf("%s: empty baseline file", path)
	}
	if err := check(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// checkReplicationFile validates a recorded replication baseline.
func checkReplicationFile(path string) error {
	return checkBaselineFile(path, bench.CheckReplicationJSON)
}

// checkRecoveryFile validates a recorded recovery baseline.
func checkRecoveryFile(path string) error {
	return checkBaselineFile(path, bench.CheckRecoveryJSON)
}

// checkRoutingFile validates a recorded routing baseline.
func checkRoutingFile(path string) error {
	return checkBaselineFile(path, bench.CheckRoutingJSON)
}

// checkStreamFile validates a recorded streaming baseline.
func checkStreamFile(path string) error {
	return checkBaselineFile(path, bench.CheckStreamJSON)
}

// checkHierarchyFile validates a recorded hierarchy baseline.
func checkHierarchyFile(path string) error {
	return checkBaselineFile(path, bench.CheckHierarchyJSON)
}

// checkAdaptiveFile validates a recorded adaptive-parameters baseline.
func checkAdaptiveFile(path string) error {
	return checkBaselineFile(path, bench.CheckAdaptiveJSON)
}

// runAdaptiveBaseline runs the adaptive-vs-static skew sweep, prints it, and
// optionally records the JSON baseline. The quick run shrinks the traffic
// samples; its output is still expected to pass -adaptive-check (the gates
// are seeded and deterministic), but the recorded baseline comes from the
// full-scale run.
func runAdaptiveBaseline(w *os.File, quick bool, out string) error {
	cfg := bench.AdaptiveConfig{}
	if quick {
		cfg.WarmQueries = 300
		cfg.MeasureQueries = 800
		cfg.Skews = []bench.AdaptiveSkew{
			{Name: "uniform", ZipfS: 0, DigestSeeds: 1},
			{Name: "zipf1.2", ZipfS: 1.2, DigestSeeds: 1},
			{Name: "zipf2.0", ZipfS: 2.0, DigestSeeds: 3},
		}
	}
	r, err := bench.RunAdaptiveBench(context.Background(), cfg)
	if err != nil {
		return err
	}
	bench.RenderAdaptive(w, r)
	fmt.Fprintln(w)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := bench.WriteAdaptiveJSON(f, r); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded adaptive baseline: %s\n", out)
	return nil
}

// runHierarchyBaseline runs the flat-vs-hierarchy sweep, prints it, and
// optionally records the JSON baseline. The quick sweep stays below the
// 1024-station gate, so it prints and records but will not pass
// -hierarchy-check.
func runHierarchyBaseline(w *os.File, quick bool, out string) error {
	cfg := bench.HierarchyConfig{}
	if quick {
		cfg.StationCounts = []int{64, 256}
		cfg.ResidentsPerStation = 8
		cfg.Repetitions = 2
	}
	r, err := bench.RunHierarchyBench(context.Background(), cfg)
	if err != nil {
		return err
	}
	bench.RenderHierarchy(w, r)
	fmt.Fprintln(w)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := bench.WriteHierarchyJSON(f, r); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline recorded to %s\n", out)
	return nil
}

// runStreamBaseline runs the streaming phases, prints them, and optionally
// records the JSON baseline.
func runStreamBaseline(w *os.File, quick bool, out string) error {
	cfg := bench.StreamBenchConfig{}
	if quick {
		cfg.Duration = 500 * time.Millisecond
		cfg.TargetRate = 20000
		cfg.ChurnPersons = 100
		cfg.TTL = time.Second
		cfg.ShedSubmissions = 2000
	}
	r, err := bench.RunStreamBench(context.Background(), cfg)
	if err != nil {
		return err
	}
	bench.RenderStream(w, r)
	fmt.Fprintln(w)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := bench.WriteStreamJSON(f, r); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline recorded to %s\n", out)
	return nil
}

// runRoutingBaseline runs the routed-vs-full sweep, prints it, and
// optionally records the JSON baseline.
func runRoutingBaseline(w *os.File, quick bool, out string) error {
	cfg := bench.RoutingConfig{}
	if quick {
		cfg.Persons = 200
		cfg.StationCounts = []int{4, 16}
		cfg.Repetitions = 2
	}
	r, err := bench.RunRoutingBench(context.Background(), cfg)
	if err != nil {
		return err
	}
	bench.RenderRouting(w, r)
	fmt.Fprintln(w)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := bench.WriteRoutingJSON(f, r); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline recorded to %s\n", out)
	return nil
}

// runReplicationBaseline runs the replication sweep, prints it, and
// optionally records the JSON baseline.
func runReplicationBaseline(w *os.File, quick bool, out string) error {
	cfg := bench.ReplicationConfig{}
	if quick {
		cfg.Persons = 150
		cfg.Stations = 4
	}
	r, err := bench.RunReplicationBench(context.Background(), cfg)
	if err != nil {
		return err
	}
	bench.RenderReplication(w, r)
	fmt.Fprintln(w)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := bench.WriteReplicationJSON(f, r); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline recorded to %s\n", out)
	return nil
}

// runRecoveryBaseline runs the restart-cost comparison, prints it, and
// optionally records the JSON baseline.
func runRecoveryBaseline(w *os.File, quick bool, out string) error {
	cfg := bench.RecoveryConfig{}
	if quick {
		cfg.Residents = 20000
		cfg.Repetitions = 1
	}
	dir, err := os.MkdirTemp("", "di-bench-recovery-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.Dir = dir
	r, err := bench.RunRecoveryBench(context.Background(), cfg)
	if err != nil {
		return err
	}
	bench.RenderRecovery(w, r)
	fmt.Fprintln(w)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := bench.WriteRecoveryJSON(f, r); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline recorded to %s\n", out)
	return nil
}

func runExperiments(run string, quick bool, strat dimatch.Strategy, replicationOut, recoveryOut, routingOut, streamOut, hierarchyOut, adaptiveOut string) error {
	selected := func(name string) bool { return run == "all" || run == name }
	any := false
	w := os.Stdout

	if selected("fig1a") {
		any = true
		series, err := bench.Figure1a(bench.Figure1aConfig{})
		if err != nil {
			return err
		}
		bench.RenderFigure1a(w, series)
		fmt.Fprintln(w)
	}
	if selected("fig1b") {
		any = true
		cfg := bench.Figure1bConfig{}
		if quick {
			cfg.Persons = 120
		}
		r, err := bench.Figure1b(cfg)
		if err != nil {
			return err
		}
		bench.RenderFigure1b(w, r)
		fmt.Fprintln(w)
	}
	if selected("fig3") {
		any = true
		series, err := bench.Figure3(bench.Figure1aConfig{})
		if err != nil {
			return err
		}
		bench.RenderFigure3(w, series)
		fmt.Fprintln(w)
	}
	if selected("conv") {
		any = true
		cfg := bench.ConvergenceConfig{}
		if quick {
			cfg.Groups = 2
			cfg.SampleCounts = []int{2, 5, 8, 12}
			cfg.Persons = 60
		}
		points, err := bench.Convergence(context.Background(), cfg)
		if err != nil {
			return err
		}
		bench.RenderConvergence(w, points)
		fmt.Fprintln(w)
	}
	if selected("fig4") {
		any = true
		cfg := bench.Figure4Config{}
		if quick {
			cfg.Persons = 2000
			cfg.Stations = 36
			cfg.PatternCounts = []int{5, 15, 30}
			cfg.QueriesScored = 5
		}
		points, err := bench.Figure4(context.Background(), cfg)
		if err != nil {
			return err
		}
		bench.RenderFigure4(w, points)
		fmt.Fprintln(w)
	}
	if selected("table2") {
		any = true
		cfg := bench.TableIIConfig{}
		if quick {
			cfg.Persons = 120
			cfg.Days = 2
			cfg.QueriesPerDay = 6
		}
		rows, err := bench.TableII(context.Background(), cfg)
		if err != nil {
			return err
		}
		bench.RenderTableII(w, rows)
		fmt.Fprintln(w)
	}
	if selected("salting") {
		any = true
		cfg := bench.AblationConfig{}
		if quick {
			cfg.Persons = 120
		}
		rows, err := bench.AblationSalting(context.Background(), cfg)
		if err != nil {
			return err
		}
		bench.RenderAblation(w, "Ablation (DESIGN.md D8): position salting at ε > 0", rows)
		fmt.Fprintln(w)
	}
	if selected("tolerance") {
		any = true
		cfg := bench.AblationConfig{}
		if quick {
			cfg.Persons = 120
		}
		rows, err := bench.AblationTolerance(context.Background(), cfg)
		if err != nil {
			return err
		}
		bench.RenderAblation(w, "Ablation (DESIGN.md D1): scaled vs absolute ε bands", rows)
		fmt.Fprintln(w)
	}
	if selected("sizing") {
		any = true
		cfg := bench.AblationConfig{}
		if quick {
			cfg.Persons = 120
		}
		rows, err := bench.SizingSweep(context.Background(), cfg, nil)
		if err != nil {
			return err
		}
		bench.RenderSizing(w, rows)
		fmt.Fprintln(w)
	}
	if selected("resilience") {
		any = true
		cfg := bench.AblationConfig{}
		if quick {
			cfg.Persons = 120
		}
		rows, err := bench.Resilience(context.Background(), cfg, nil, strat)
		if err != nil {
			return err
		}
		bench.RenderResilience(w, rows)
		fmt.Fprintln(w)
	}
	if selected("replication") {
		any = true
		if err := runReplicationBaseline(os.Stdout, quick, replicationOut); err != nil {
			return err
		}
	}
	if selected("recovery") {
		any = true
		if err := runRecoveryBaseline(os.Stdout, quick, recoveryOut); err != nil {
			return err
		}
	}
	if selected("routing") {
		any = true
		if err := runRoutingBaseline(os.Stdout, quick, routingOut); err != nil {
			return err
		}
	}
	if selected("stream") {
		any = true
		if err := runStreamBaseline(os.Stdout, quick, streamOut); err != nil {
			return err
		}
	}
	if selected("hierarchy") {
		any = true
		if err := runHierarchyBaseline(os.Stdout, quick, hierarchyOut); err != nil {
			return err
		}
	}
	if selected("adaptive") {
		any = true
		if err := runAdaptiveBaseline(os.Stdout, quick, adaptiveOut); err != nil {
			return err
		}
	}
	if !any {
		return fmt.Errorf("unknown experiment %q (want one of: all fig1a fig1b fig3 conv fig4 table2 salting tolerance sizing resilience replication recovery routing stream hierarchy adaptive)", strings.TrimSpace(run))
	}
	return nil
}
