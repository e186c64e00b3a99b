// Package analyzers holds the repo's invariant checkers — wirekind,
// epochpin, lockio and ctxflow, one file each — and the stdlib-only loader
// they run on. The suite test (TestRepoIsClean) is their one runner. See
// docs/ANALYZERS.md for what each pass enforces and how to suppress a
// finding.
package analyzers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// analyzer is one invariant checker. name identifies it in findings and in
// //dimatch:allow suppression comments; run reports findings through
// pass.reportf.
type analyzer struct {
	name string
	run  func(*pass)
}

// all is every analyzer the suite test runs, in reporting order.
var all = []analyzer{
	{"wirekind", wirekind},
	{"epochpin", epochpin},
	{"lockio", lockio},
	{"ctxflow", ctxflow},
}

// unit is one parsed, type-checked package.
type unit struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// pass hands one analyzer one unit.
type pass struct {
	*unit
	analyzer   string
	suppressed map[string]map[int]bool // filename -> line -> allow present
	findings   []finding
}

// finding is one reported violation.
type finding struct {
	pos      token.Position
	message  string
	analyzer string
}

// reportf records a finding at pos unless the line it lands on — or the
// line above, for a standalone suppression comment — carries
// "//dimatch:allow <analyzer>".
func (p *pass) reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.fset.Position(pos)
	if lines := p.suppressed[position.Filename]; lines[position.Line] || lines[position.Line-1] {
		return
	}
	p.findings = append(p.findings, finding{position, fmt.Sprintf(format, args...), p.analyzer})
}

// suppressions indexes every //dimatch:allow comment that names the
// analyzer (or "all"), by file and line.
func (u *unit) suppressions(analyzer string) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range u.files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				name, ok := parseAllow(c.Text)
				if !ok || (name != analyzer && name != "all") {
					continue
				}
				position := u.fset.Position(c.Pos())
				if out[position.Filename] == nil {
					out[position.Filename] = make(map[int]bool)
				}
				out[position.Filename][position.Line] = true
			}
		}
	}
	return out
}

// parseAllow extracts the analyzer name from a "//dimatch:allow <name>[ — reason]"
// comment; ok is false for any other comment.
func parseAllow(text string) (name string, ok bool) {
	const prefix = "//dimatch:allow "
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// check applies each analyzer to the unit and returns the surviving
// findings sorted by position. Every analyzer gets a fresh pass; analyzers
// cannot observe each other.
func (u *unit) check(analyzers ...analyzer) []finding {
	var out []finding
	for _, a := range analyzers {
		p := &pass{unit: u, analyzer: a.name, suppressed: u.suppressions(a.name)}
		a.run(p)
		out = append(out, p.findings...)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].pos, out[j].pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Offset != pj.Offset {
			return pi.Offset < pj.Offset
		}
		return out[i].analyzer < out[j].analyzer
	})
	return out
}

// module is what one load returns: the packages its patterns matched, and
// the export data of them and every dependency (import path -> file).
type module struct {
	units   []*unit
	exports map[string]string
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
}

// load resolves the given `go list` patterns (e.g. "./...") relative to
// dir with one `go list -export -deps` run, and parses and type-checks
// every matched package, imports satisfied from compiler export data. Only
// GoFiles are parsed: test files are not analyzed.
func load(dir string, patterns ...string) (*module, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analyzers: go list: %v\n%s", err, stderr.Bytes())
	}

	// -deps lists every package after all of its dependencies, so the
	// export data a package imports is recorded before it is type-checked.
	m := &module{exports: make(map[string]string)}
	fset := token.NewFileSet()
	imp := exportImporter(fset, m.exports)
	dec := json.NewDecoder(&stdout)
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analyzers: go list output: %v", err)
		}
		if e.Export != "" {
			m.exports[e.ImportPath] = e.Export
		}
		if e.DepOnly || e.Name == "" || len(e.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range e.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(e.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analyzers: %v", err)
			}
			files = append(files, f)
		}
		u, err := typeCheck(e.ImportPath, fset, files, imp)
		if err != nil {
			return nil, err
		}
		m.units = append(m.units, u)
	}
	return m, nil
}

// exportImporter returns a types.Importer that satisfies imports from the
// compiler export-data files recorded in exports (import path -> file).
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analyzers: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// typeCheck type-checks the files as package path, with a fully populated
// types.Info.
func typeCheck(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*unit, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyzers: type-checking %s: %v", path, err)
	}
	return &unit{fset: fset, files: files, pkg: pkg, info: info}, nil
}
