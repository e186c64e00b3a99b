package dimatch_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/wire"
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

// mdMention matches a markdown file named in prose or a comment by its
// upper-case base name, with any path written in front of it: README.md,
// docs/WIRE.md.
var mdMention = regexp.MustCompile(`[\w./-]*\b[A-Z][A-Z_]+\.md\b`)

// TestDocsLocalLinks walks every local link in README, ARCHITECTURE and
// docs/* and fails on targets that do not exist in the repository — the
// docs CI job's link check. External links (http/https/mailto) are out of
// scope: CI must not flake on network weather. It also walks every .go and
// .md file for markdown files mentioned by name outside a link: each must
// exist relative to the repository root or to the file naming it, so a
// comment cannot send the reader to a document nobody wrote. The root's
// other markdown files are exempt: they record or plan changes, and so
// name files that are gone or belong to other repositories.
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

	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, .github, .claude
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go":
		case ".md":
			if filepath.Dir(path) == "." && path != "README.md" && path != "ARCHITECTURE.md" {
				return nil
			}
		default:
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdMention.FindAllString(string(body), -1) {
			_, atRoot := os.Stat(filepath.FromSlash(m))
			_, beside := os.Stat(filepath.Join(filepath.Dir(path), filepath.FromSlash(m)))
			if atRoot != nil && beside != nil {
				t.Errorf("%s names %s, which exists neither at the repository root nor beside it", path, m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// removedRefs match what deleted tooling left in prose: the recorded-baseline
// bench stack's BENCH_*.json files and di-bench's -<name>-out/-<name>-check
// flag pairs; the di-lint binary and the two ways it ran; the in-coordinator
// digest-tree routing mode and the two Options fields nobody set.
var removedRefs = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`BENCH_|-(replication|routing|stream|recovery|hierarchy|adaptive)-(out|check)\b`), "the recorded-baseline bench stack"},
	{regexp.MustCompile(`di-lint|-vettool|-allocharness`), "cmd/di-lint (go test ./internal/analyzers is the one runner)"},
	{regexp.MustCompile(`RoutingTree|Options\.(Routing|BatchSize)\b`), "the digest-tree planner and the cluster-level routing/batching defaults (WithRouting and WithBatching are per call)"},
}

// TestDocsBenchmarkReferenced pins the docs/benchmark contract: every
// workload and end-to-end metric BENCHMARK.json declares is named in the
// README, so neither can ship undocumented, and no guarded doc still points
// at removed baseline files, flags or binaries.
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
		for _, r := range removedRefs {
			if m := r.re.Find(body); m != nil {
				t.Errorf("%s still mentions %q, removed with %s", f, m, r.with)
			}
		}
	}
}

// Flags of the di-cluster command: flagDef matches one definition in its
// main.go; clusterLine matches the rest of a line that names the command,
// continued over backslash-newlines as shell examples are; flagUse matches
// one -flag on it (values such as -1 or 127.0.0.1:0 are not flags).
var (
	flagDef     = regexp.MustCompile(`flag\.\w+\("([a-z]+)"`)
	clusterLine = regexp.MustCompile(`di-cluster((?:[^\\\n]|\\\n?)*)`)
	flagUse     = regexp.MustCompile("(?:^|[\\s`(])-([a-z][a-z0-9-]*)")
)

// TestDocsClusterFlags pins the docs to the binary: on any line of a guarded
// doc that names di-cluster, every -flag after the name must be one
// cmd/di-cluster/main.go defines — a doc cannot keep advertising a mode the
// command no longer has, or a flag it never had.
func TestDocsClusterFlags(t *testing.T) {
	src, err := os.ReadFile("cmd/di-cluster/main.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := make(map[string]bool)
	for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
		defined[m[1]] = true
	}
	if len(defined) == 0 {
		t.Fatal("found no flag definitions in cmd/di-cluster/main.go")
	}
	uses := 0
	for _, f := range docFiles(t) {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, line := range clusterLine.FindAllStringSubmatch(string(body), -1) {
			for _, m := range flagUse.FindAllStringSubmatch(line[1], -1) {
				uses++
				if !defined[m[1]] {
					t.Errorf("%s: %q uses -%s, which di-cluster does not define", f, "di-cluster"+line[1], m[1])
				}
			}
		}
	}
	if uses == 0 {
		t.Fatal("no guarded doc shows a di-cluster flag: the guard matches nothing")
	}
}

// wireKindConst matches one Kind constant declaration in internal/wire.
var wireKindConst = regexp.MustCompile(`(?m)^\t(Kind\w+) +Kind = (\d+)$`)

// wireKindRow and wireRetiredRow match one assigned and one retired row of
// docs/WIRE.md's kind table.
var wireKindRow = regexp.MustCompile("(?m)^\\| `(Kind\\w+)` \\| (\\d+) \\|")
var wireRetiredRow = regexp.MustCompile(`(?m)^\| \*retired\* \| (\d+) \|`)

// TestDocsWireKindTable pins docs/WIRE.md's kind table to the code: every
// wire.Kind constant appears in it with its wire value, so a kind cannot
// ship undocumented or be renumbered in only one place, every assigned row
// names a constant, and every value the table calls retired is assigned to
// no constant and refused by the frame decoder with ErrBadKind.
func TestDocsWireKindTable(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("internal", "wire", "wire.go"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	kinds := wireKindConst.FindAllStringSubmatch(string(src), -1)
	if len(kinds) == 0 {
		t.Fatal("found no Kind constants in internal/wire/wire.go")
	}
	assigned := make(map[string]string, len(kinds))
	for _, k := range kinds {
		assigned[k[2]] = k[1]
		if row := "| `" + k[1] + "` | " + k[2] + " |"; !strings.Contains(string(doc), row) {
			t.Errorf("docs/WIRE.md kind table has no row %q", row)
		}
	}
	for _, row := range wireKindRow.FindAllStringSubmatch(string(doc), -1) {
		if assigned[row[2]] != row[1] {
			t.Errorf("docs/WIRE.md kind table row `%s` | %s names no wire.Kind constant of that value", row[1], row[2])
		}
	}
	retired := wireRetiredRow.FindAllStringSubmatch(string(doc), -1)
	if len(retired) == 0 {
		t.Fatal("found no *retired* rows in docs/WIRE.md's kind table")
	}
	for _, r := range retired {
		if name, ok := assigned[r[1]]; ok {
			t.Errorf("docs/WIRE.md retires kind %s, but wire.go assigns it to %s", r[1], name)
		}
		v, err := strconv.ParseUint(r[1], 10, 8)
		if err != nil {
			t.Fatalf("retired row value %q: %v", r[1], err)
		}
		if _, err := wire.Decode(wire.Message{Kind: wire.Kind(v)}.Encode()); !errors.Is(err, wire.ErrBadKind) {
			t.Errorf("a frame of retired kind %d decodes with err = %v, want ErrBadKind", v, err)
		}
	}
}

// wireHexDump matches one worked frame of docs/WIRE.md: a fenced block of
// "offset  byte byte …" rows.
var wireHexDump = regexp.MustCompile("(?m)^```\n((?:[0-9a-f]{4}  [0-9a-f ]+\n)+)```$")

// TestDocsWireWorkedFrames holds docs/WIRE.md's hex dumps to the codec: each
// is a complete frame the decoder accepts (magic, the current version byte,
// a live kind, the declared length), and the first — the KindBatchQuery
// walk-through, whose filter block is the layout most likely to move — is
// byte for byte what the live encoder writes for the query the text names.
func TestDocsWireWorkedFrames(t *testing.T) {
	doc, err := os.ReadFile("docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for _, dump := range wireHexDump.FindAllStringSubmatch(string(doc), -1) {
		var frame []byte
		for _, row := range strings.Split(strings.TrimSpace(dump[1]), "\n") {
			b, err := hex.DecodeString(strings.ReplaceAll(row[6:], " ", ""))
			if err != nil {
				t.Fatalf("hex dump row %q: %v", row, err)
			}
			frame = append(frame, b...)
		}
		if _, err := wire.Decode(frame); err != nil {
			t.Errorf("worked frame % x… does not decode: %v", frame[:8], err)
		}
		frames = append(frames, frame)
	}
	if len(frames) != 5 {
		t.Fatalf("found %d worked frames in docs/WIRE.md, want 5", len(frames))
	}

	enc, err := core.NewEncoder(core.Params{Bits: 64, Hashes: 2, Samples: 2, Tolerance: core.ToleranceScaled, Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.AddQuery(core.Query{ID: 1, Locals: []pattern.Pattern{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	m, err := wire.EncodeBatchQuery(wire.BatchQuery{Queries: []core.QueryID{1}, Filter: enc.Filter()})
	if err != nil {
		t.Fatal(err)
	}
	if live := m.WithRequest(42).Encode(); !bytes.Equal(frames[0], live) {
		t.Errorf("docs/WIRE.md's KindBatchQuery frame drifted from the encoder:\n doc  % x\n live % x", frames[0], live)
	}
}
