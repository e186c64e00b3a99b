package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"syscall"
)

// metricDef declares one reported metric. The tables below are what
// BENCHMARK.json lists; a test holds the file and the tables together.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd is what a user of the cluster sees and what BENCHMARK.json puts
// a bound on, reported with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"bytes_per_query", "B", false},
	{"msgs_per_query", "count", false},
	{"recall", "ratio", true},
	{"peak_rss_mb", "MB", false},
}

// clientTimed is what the one caller sees on the clock. These are layer
// metrics, without a bound (README says why under "End-to-end metrics"); every run
// measures them with tracing off and prints them.
var clientTimed = []metricDef{
	{"client.ops_per_s", "1/s", true},
	{"client.search_p50_ms", "ms", false},
	{"client.search_p90_ms", "ms", false},
	{"client.search_p99_ms", "ms", false},
	{"client.cpu_ms_per_query", "ms", false},
}

// tracedLayers are the traced run's own metrics.
var tracedLayers = []metricDef{
	// counted, from CostReport, Stats, RoutingState, Ingestor.Report, WAL
	{"cluster.stations_visited_per_query", "count", false},
	{"cluster.stations_pruned_per_query", "count", true},
	{"cluster.reports_per_query", "count", false},
	{"cluster.results_per_query", "count", true},
	{"core.report_yield", "ratio", true},
	{"index.probes_per_query", "count", false},
	{"cluster.summary_refreshes_per_query", "count", false},
	{"cluster.summary_bytes_per_query", "B", false},
	{"core.filter_bytes_per_query", "B", false},
	{"wire.bytes_down_per_query", "B", false},
	{"wire.bytes_up_per_query", "B", false},
	{"cluster.routing_state_bytes", "B", false},
	{"cluster.station_raw_bytes", "B", false},
	{"stream.flushes_per_kpattern", "count", false},
	{"stream.blocked_per_kpattern", "count", false},
	{"stream.flush_failures", "count", false},
	{"wal.log_bytes_per_pattern", "B", false},
	{"wal.snapshot_folds", "count", false},
	// timed, medians per query from the traced pass
	{"cluster.search_us", "us", false},
	{"core.encode_us", "us", false},
	{"index.probe_build_us", "us", false},
	{"index.plan_us", "us", false},
	{"tree.plan_us", "us", false},
	{"wire.query_encode_us", "us", false},
	{"wire.query_decode_us", "us", false},
	{"core.match_us", "us", false},
	{"core.match_max_us", "us", false},
	{"core.match_ns_per_resident", "ns", false},
	{"wire.reply_encode_us", "us", false},
	{"wire.reply_decode_us", "us", false},
	{"core.aggregate_us", "us", false},
	{"core.rank_us", "us", false},
	{"cluster.verify_us", "us", false},
	{"cluster.unattributed_us", "us", false},
	{"transport.tcp_rtt_us", "us", false},
	{"transport.pipe_rtt_us", "us", false},
	{"hash.indexes_ns", "ns", false},
	{"bloom.contains_ns", "ns", false},
	{"placement.pick_ns", "ns", false},
	{"stream.ingest_pps", "1/s", true},
	{"stream.submit_us", "us", false},
	{"stream.flush_ms", "ms", false},
	{"wal.append_us", "us", false},
	{"wal.snapshot_ms", "ms", false},
	{"wal.recover_ms", "ms", false},
	{"trace.overhead_pct", "%", false},
	{"bench.datagen_s", "s", false},
}

// perLayer is reported with -trace 1: the traced run's own metrics and the
// caller's timed ones. Names carry the module as prefix.
var perLayer = append(append([]metricDef(nil), tracedLayers...), clientTimed...)

// median of a copy of v; 0 for an empty slice.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile of a copy of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %v", sc.Err())
}

// onTmpfs reports whether dir sits on a tmpfs, where fsync costs nothing.
func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}
