// Command di-bench regenerates the paper's evaluation tables and figures
// (the experiment index in package dimatch/internal/bench) and prints them
// as text tables.
//
// Usage:
//
//	di-bench [-run all|<experiment>] [-quick] [-strategy wbf]
//
// The default -run all executes every experiment at full scale (a few
// minutes); -quick shrinks the workloads for a fast smoke run. -strategy
// selects which strategy the resilience experiment degrades (naive, bf or
// wbf). An unknown experiment name exits non-zero and lists the valid ones.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dimatch"
	"dimatch/internal/bench"
)

// experiments is the single source of experiment names: -run's help, the
// unknown-name error and the dispatch all read it. Each entry runs one
// experiment of the index in package bench's comment and renders it to w.
var experiments = []struct {
	name string
	run  func(w io.Writer, quick bool, strat dimatch.Strategy) error
}{
	{"fig1a", func(w io.Writer, _ bool, _ dimatch.Strategy) error {
		series, err := bench.Figure1a(bench.Figure1aConfig{})
		if err != nil {
			return err
		}
		bench.RenderFigure1a(w, series)
		return nil
	}},
	{"fig1b", func(w io.Writer, quick bool, _ dimatch.Strategy) error {
		cfg := bench.Figure1bConfig{}
		if quick {
			cfg.Persons = 120
		}
		r, err := bench.Figure1b(cfg)
		if err != nil {
			return err
		}
		bench.RenderFigure1b(w, r)
		return nil
	}},
	{"fig3", func(w io.Writer, _ bool, _ dimatch.Strategy) error {
		series, err := bench.Figure3(bench.Figure1aConfig{})
		if err != nil {
			return err
		}
		bench.RenderFigure3(w, series)
		return nil
	}},
	{"conv", func(w io.Writer, quick bool, _ dimatch.Strategy) error {
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
		return nil
	}},
	{"fig4", func(w io.Writer, quick bool, _ dimatch.Strategy) error {
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
		return nil
	}},
	{"table2", func(w io.Writer, quick bool, _ dimatch.Strategy) error {
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
		return nil
	}},
	{"salting", func(w io.Writer, quick bool, _ dimatch.Strategy) error {
		rows, err := bench.AblationSalting(context.Background(), ablationConfig(quick))
		if err != nil {
			return err
		}
		bench.RenderAblation(w, "Ablation: position salting at ε > 0", rows)
		return nil
	}},
	{"sizing", func(w io.Writer, quick bool, _ dimatch.Strategy) error {
		rows, err := bench.SizingSweep(context.Background(), ablationConfig(quick), nil)
		if err != nil {
			return err
		}
		bench.RenderSizing(w, rows)
		return nil
	}},
	{"resilience", func(w io.Writer, quick bool, strat dimatch.Strategy) error {
		rows, err := bench.Resilience(context.Background(), ablationConfig(quick), nil, strat)
		if err != nil {
			return err
		}
		bench.RenderResilience(w, rows)
		return nil
	}},
}

// ablationConfig is the workload the ablation, sizing and resilience
// experiments share.
func ablationConfig(quick bool) bench.AblationConfig {
	cfg := bench.AblationConfig{}
	if quick {
		cfg.Persons = 120
	}
	return cfg
}

// experimentNames lists the table's names in order, space-separated.
func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, " ")
}

func main() {
	var (
		run      = flag.String("run", "all", "experiment to run: all or one of "+experimentNames())
		quick    = flag.Bool("quick", false, "use reduced workloads (seconds instead of minutes)")
		strategy = flag.String("strategy", "wbf", "strategy for the resilience experiment (naive, bf, wbf)")
	)
	flag.Parse()
	strat, err := dimatch.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "di-bench:", err)
		os.Exit(1)
	}
	if err := runExperiments(os.Stdout, *run, *quick, strat); err != nil {
		fmt.Fprintln(os.Stderr, "di-bench:", err)
		os.Exit(1)
	}
}

// runExperiments runs the named experiment, or every one for "all", each
// followed by a blank line.
func runExperiments(w io.Writer, run string, quick bool, strat dimatch.Strategy) error {
	ran := false
	for _, e := range experiments {
		if run != "all" && run != e.name {
			continue
		}
		ran = true
		if err := e.run(w, quick, strat); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(w)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want all or one of: %s)", strings.TrimSpace(run), experimentNames())
	}
	return nil
}
