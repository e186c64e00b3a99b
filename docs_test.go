package dimatch_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles returns the markdown files the docs CI job guards.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "ARCHITECTURE.md"}
	more, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, more...)
}

// mdLink matches inline markdown links: [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLocalLinks walks every local link in README, ARCHITECTURE and
// docs/* and fails on targets that do not exist in the repository — the
// docs CI job's link check. External links (http/https/mailto) are out of
// scope: CI must not flake on network weather.
func TestDocsLocalLinks(t *testing.T) {
	for _, f := range docFiles(t) {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue // pure fragment: same-file anchor
			}
			resolved := filepath.Join(filepath.Dir(f), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken local link %q (resolved %s)", f, m[1], resolved)
			}
		}
	}
}

// removedBenchRef matches what the recorded-baseline bench stack left in
// prose: its BENCH_*.json files and di-bench's -<name>-out/-<name>-check
// flag pairs.
var removedBenchRef = regexp.MustCompile(`BENCH_|-(replication|routing|stream|recovery|hierarchy|adaptive)-(out|check)\b`)

// TestDocsBenchmarkReferenced pins the docs/benchmark contract: every
// workload and end-to-end metric BENCHMARK.json declares is named in the
// README, so neither can ship undocumented, and no guarded doc still points
// at the removed baseline files or flags.
func TestDocsBenchmarkReferenced(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) == 0 || len(decl.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or no end-to-end metrics")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range append(decl.Workloads, decl.EndToEnd...) {
		if !strings.Contains(string(readme), "`"+n.Name+"`") {
			t.Errorf("README.md does not mention `%s` from BENCHMARK.json", n.Name)
		}
	}
	for _, f := range docFiles(t) {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if m := removedBenchRef.Find(body); m != nil {
			t.Errorf("%s still mentions %q, removed with the recorded-baseline bench stack", f, m)
		}
	}
}

// wireKindConst matches one Kind constant declaration in internal/wire.
var wireKindConst = regexp.MustCompile(`(?m)^\t(Kind\w+) +Kind = (\d+)$`)

// TestDocsWireKindTable pins docs/WIRE.md's kind table to the code: every
// wire.Kind constant appears in it with its wire value, so a kind cannot
// ship undocumented or be renumbered in only one place.
func TestDocsWireKindTable(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("internal", "wire", "wire.go"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("docs", "WIRE.md"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := wireKindConst.FindAllStringSubmatch(string(src), -1)
	if len(kinds) == 0 {
		t.Fatal("found no Kind constants in internal/wire/wire.go")
	}
	for _, k := range kinds {
		if row := "| `" + k[1] + "` | " + k[2] + " |"; !strings.Contains(string(doc), row) {
			t.Errorf("docs/WIRE.md kind table has no row %q", row)
		}
	}
}
