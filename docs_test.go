package dimatch_test

import (
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

// TestDocsBaselinesReferenced pins the docs/bench contract: every recorded
// baseline committed at the repo root is linked from the README, so a new
// baseline cannot ship undocumented.
func TestDocsBaselinesReferenced(t *testing.T) {
	baselines, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(baselines) == 0 {
		t.Fatal("no committed baselines found")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range baselines {
		if !strings.Contains(string(readme), b) {
			t.Errorf("README.md does not mention committed baseline %s", b)
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
