package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"dimatch"
)

// asNodeEnv, when set in the environment, makes the test binary behave as
// the di-cluster command itself, so a test can run the product main — flag
// parsing included — as a real child process it can SIGKILL.
const asNodeEnv = "DI_CLUSTER_TEST_AS_NODE"

func TestMain(m *testing.M) {
	if os.Getenv(asNodeEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// nodeCommand prepares one di-cluster process with the given flags, its
// stderr wired to the test's and its stdout discarded unless the caller
// pipes it. ctx ending kills the process.
func nodeCommand(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), asNodeEnv+"=1")
	cmd.Stderr = os.Stderr
	return cmd
}

// start launches a prepared node and kills it when the test finishes, if it
// is still running then.
func start(t *testing.T, cmd *exec.Cmd) *exec.Cmd {
	t.Helper()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	return cmd
}

// TestCenterAndStationsOverTCP runs the deployment the command exists for:
// one center process and three station processes on a loopback port. The
// center must retrieve the reference person at full weight, print the
// routing cost line, and shut every station down cleanly.
func TestCenterAndStationsOverTCP(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const n = 3
	shared := []string{"-stations", fmt.Sprint(n), "-persons", "120", "-seed", "3"}

	center := nodeCommand(ctx,
		append([]string{"-role", "center", "-listen", "127.0.0.1:0", "-ref", "0"}, shared...)...)
	stdout, err := center.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	start(t, center)
	lines := bufio.NewScanner(stdout)
	var output strings.Builder
	// awaitLine consumes center output up to the first line with the prefix.
	awaitLine := func(prefix string) string {
		t.Helper()
		for lines.Scan() {
			output.WriteString(lines.Text() + "\n")
			if strings.HasPrefix(lines.Text(), prefix) {
				return lines.Text()
			}
		}
		t.Fatalf("center output ended before a %q line:\n%s", prefix, output.String())
		return ""
	}

	var addr string
	if _, err := fmt.Sscanf(awaitLine("center: listening on "), "center: listening on %s", &addr); err != nil {
		t.Fatal(err)
	}
	// The center attributes links by accept order, so station i+1 starts
	// only once the center has acknowledged station i.
	stations := make([]*exec.Cmd, n)
	for i := range stations {
		stations[i] = start(t, nodeCommand(ctx,
			append([]string{"-role", "station", "-connect", addr, "-station", fmt.Sprint(i)}, shared...)...))
		awaitLine(fmt.Sprintf("center: station %d connected", i))
	}
	for lines.Scan() {
		output.WriteString(lines.Text() + "\n")
	}
	if err := center.Wait(); err != nil {
		t.Fatalf("center exited with %v:\n%s", err, output.String())
	}
	for i, st := range stations {
		if err := st.Wait(); err != nil {
			t.Fatalf("station %d exited with %v after the center's shutdown", i, err)
		}
	}

	for _, want := range []string{
		"persons similar to 0 ",
		"  person 0      weight 1.000 ",
		"center: routing summary: ",
	} {
		if !strings.Contains(output.String(), want) {
			t.Fatalf("center output lacks %q:\n%s", want, output.String())
		}
	}
}

// TestKill9StationRecoversFromWAL is the one crash no in-process test can
// restate: a WAL-backed station running as a real OS process is SIGKILLed —
// no shutdown frame, no store flush — and relaunched from the same
// directory. Every acked placement must already be on disk, so the replicas
// cover the outage, the relaunch recovers its residents locally, and the
// rejoin ships only what was placed while it was down.
func TestKill9StationRecoversFromWAL(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir := t.TempDir()
	var down, up dimatch.Meter
	ln, err := dimatch.Listen("127.0.0.1:0", &down, &up)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const walStation = 1
	spawn := func(id uint32) (*exec.Cmd, dimatch.Link) {
		t.Helper()
		args := []string{"-role", "station", "-connect", ln.Addr(), "-station", fmt.Sprint(id), "-empty"}
		if id == walStation {
			args = append(args, "-store", "wal", "-dir", dir)
		}
		cmd := start(t, nodeCommand(ctx, args...))
		link, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return cmd, link
	}
	_, link0 := spawn(0)
	walProc, link1 := spawn(walStation)

	// Exact matching over distinct patterns: a person missing from their own
	// query's answer can only mean a lost copy, never Bloom noise.
	const persons, length = 200, 24
	patternOf := func(p int) dimatch.Pattern {
		out := make(dimatch.Pattern, length)
		for i := range out {
			out[i] = int64((p*31 + i*7) % 997)
		}
		out[0] = int64(p + 1)
		return out
	}
	c, err := dimatch.NewCluster(dimatch.Options{
		Params:   dimatch.Params{Bits: 1 << 16, Hashes: 4, Samples: 4, Epsilon: 0, Seed: 1},
		MinScore: 1.0,
	}, length, dimatch.Member{ID: 0, Link: link0}, dimatch.Member{ID: walStation, Link: link1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown() //nolint:errcheck // test teardown

	placed := make(map[dimatch.PersonID]dimatch.Pattern, persons)
	for p := 0; p < persons; p++ {
		placed[dimatch.PersonID(p)] = patternOf(p)
	}
	if err := c.Place(ctx, placed, dimatch.WithReplication(2)); err != nil {
		t.Fatal(err)
	}
	placeBytes := down.Bytes()

	residents := func() int {
		t.Helper()
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range st.Stations {
			if s.Station == walStation {
				return s.Residents
			}
		}
		t.Fatalf("station %d missing from stats", walStation)
		return 0
	}
	// recall is the share of placed persons their own query retrieves.
	recall := func() float64 {
		t.Helper()
		hit := 0
		for start := 0; start < persons; start += 8 {
			queries := make([]dimatch.Query, 8)
			for i := range queries {
				queries[i] = dimatch.Query{ID: dimatch.QueryID(i + 1), Locals: []dimatch.Pattern{patternOf(start + i)}}
			}
			out, err := c.Search(ctx, queries)
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				for _, got := range out.Persons(dimatch.QueryID(i + 1)) {
					if got == dimatch.PersonID(start+i) {
						hit++
					}
				}
			}
		}
		return float64(hit) / persons
	}

	preKill := residents()
	healthy := recall()
	if preKill != persons || healthy != 1 {
		t.Fatalf("healthy cluster: station %d holds %d of %d residents, recall %.3f", walStation, preKill, persons, healthy)
	}

	if err := walProc.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = walProc.Wait()
	if err := c.KillStation(walStation); err != nil {
		t.Fatal(err)
	}
	if got := recall(); got < healthy {
		t.Fatalf("recall %.3f after kill -9, healthy was %.3f: the replica did not cover the crash", got, healthy)
	}
	if err := c.RemoveStation(ctx, walStation); err != nil {
		t.Fatal(err)
	}

	// Placed while the station is down: the only data its rejoin may fetch.
	late := make(map[dimatch.PersonID]dimatch.Pattern, 8)
	for p := persons; p < persons+8; p++ {
		late[dimatch.PersonID(p)] = patternOf(p)
	}
	if err := c.Place(ctx, late, dimatch.WithReplication(2)); err != nil {
		t.Fatal(err)
	}

	rejoinStart := down.Bytes()
	_, link := spawn(walStation)
	if err := c.AddStation(ctx, dimatch.Member{ID: walStation, Link: link}); err != nil {
		t.Fatal(err)
	}
	rejoinBytes := down.Bytes() - rejoinStart

	post := residents()
	t.Logf("station %d: %d residents before the kill, %d after the restart; rejoin disseminated %d B, initial placement %d B",
		walStation, preKill, post, rejoinBytes, placeBytes)
	if post < preKill {
		t.Fatalf("relaunched station holds %d residents, had %d before the kill: WAL recovery lost acked data", post, preKill)
	}
	if rejoinBytes*4 >= placeBytes {
		t.Fatalf("rejoin disseminated %d B against %d B of initial placement: that is re-replication, not a delta top-up", rejoinBytes, placeBytes)
	}
	if got := recall(); got < healthy {
		t.Fatalf("recall %.3f after the restart, healthy was %.3f", got, healthy)
	}
	rep, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Copied != 0 || rep.Lost != 0 {
		t.Fatalf("Rebalance after the rejoin = %+v, want nothing to copy and nothing lost", rep)
	}
}
