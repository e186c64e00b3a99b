package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the calibration needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4) gives
// (its default, exclusive method), which is what the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runOnce runs this binary as a child for one workload and seed, so every
// run has a process of its own (peak RSS, GC state), and returns the
// metrics of its last output line plus the caller's timed metrics, which
// the run prints above it.
func runOnce(ctx context.Context, workload string, seed, seconds int, outDir string) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	m := make(map[string]float64)
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
		for _, d := range clientTimed {
			if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == d.name {
				if m[d.name], err = strconv.ParseFloat(f[1], 64); err != nil {
					return nil, fmt.Errorf("%s seed %d: %s: %w", workload, seed, d.name, err)
				}
			}
		}
	}
	var parsed struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &parsed); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if !parsed.Correct || parsed.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, parsed.Correct, parsed.Failed)
	}
	for k, v := range parsed.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// setStats is one metric's median and spread (IQR over median) in each of
// the two sets, as table cells too, and how much worse set B's median is
// than set A's.
type setStats struct {
	spread [2]float64
	cells  [2]string
	worse  float64
}

func compareSets(sets [2]map[string][]float64, name string, higher bool) setStats {
	var st setStats
	var med [2]float64
	for k := 0; k < 2; k++ {
		q1, q2, q3 := quartiles(sets[k][name])
		med[k], st.spread[k] = q2, (q3-q1)/q2
		st.cells[k] = fmt.Sprintf("%.5g [%.5g, %.5g] | %.2f%%", q2, q1, q3, 100*st.spread[k])
	}
	st.worse = (med[1] - med[0]) / med[0]
	if higher {
		st.worse = -st.worse
	}
	return st
}

// calibrateMain runs, per workload, two sets of n runs of this same code,
// every run with a seed of its own and the sets alternating, and prints a
// Markdown report: each set's median and quartiles per metric, the spread
// (IQR over median) and how much worse set B's median is than set A's,
// against the bound BENCHMARK.json declares. It fails when a spread exceeds
// half its bound or a set-to-set difference exceeds the bound; setup_s is
// held to the difference only, as the driver does. The caller's timed
// metrics, which carry no bound, follow in a table of their own.
func calibrateMain(ctx context.Context, n, seconds int, outDir string) int {
	if n < 5 {
		fmt.Fprintln(os.Stderr, "benchmark: -calibrate wants at least 5 runs per set")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run -calibrate from the repository root:", err)
		return 2
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 2
	}
	fmt.Printf("# Noise calibration\n\n")
	fmt.Printf("`go run ./benchmark -calibrate %d -seconds %d` on %s, nproc %d, GOMAXPROCS %d: two sets (A, B) of %d runs of the same code per workload, run alternately, every run with its own seed. ", n, seconds, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), n)
	fmt.Printf("Quartiles as Python's `statistics.quantiles(values, n=4)`; spread = (q3 - q1) / median; B vs A = how much worse B's median is than A's (negative: better). ")
	fmt.Printf("Verdict: FAIL when a spread exceeds half the bound (`setup_s` excepted, as in the driver) or B vs A exceeds the bound.\n")
	failed := false
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2 // alternate which set runs first
				m, err := runOnce(ctx, w.name, 1+set*n+i, seconds, outDir)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				for name, v := range m {
					sets[set][name] = append(sets[set][name], v)
				}
			}
		}
		fmt.Printf("\n## %s\n\n", w.name)
		fmt.Println("| metric | unit | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B vs A | bound | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, e := range sp.EndToEnd {
			st := compareSets(sets, e.Name, e.Better == "higher")
			verdict := "ok"
			if st.worse > e.Bound || (e.Name != "setup_s" && max(st.spread[0], st.spread[1]) > e.Bound/2) {
				verdict, failed = "FAIL", true
			}
			fmt.Printf("| %s | %s | %s | %s | %+.2f%% | %.1f%% | %s |\n", e.Name, e.Unit, st.cells[0], st.cells[1], 100*st.worse, 100*e.Bound, verdict)
		}
		fmt.Printf("\nNot bounded (layer metrics, measured by the same runs with tracing off):\n\n")
		fmt.Println("| metric | unit | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B vs A |")
		fmt.Println("|---|---|---|---|---|---|---|")
		for _, d := range clientTimed {
			st := compareSets(sets, d.name, d.higher)
			fmt.Printf("| %s | %s | %s | %s | %+.2f%% |\n", d.name, d.unit, st.cells[0], st.cells[1], 100*st.worse)
		}
	}
	if failed {
		return 1
	}
	return 0
}
