// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis API: just enough Analyzer/Pass surface for
// the repo's invariant checkers (internal/analyzers) to be written in the
// standard shape, without taking an external dependency. An analyzer written
// against this package ports to the real framework by changing one import
// path.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //dimatch:allow suppression comments. It must be a valid Go
	// identifier.
	Name string

	// Doc is the help text: first line is a one-sentence summary.
	Doc string

	// Run applies the analyzer to one package. It reports findings through
	// pass.Report/Reportf and returns an error only for failures of the
	// analyzer itself (a finding is not an error).
	Run func(*Pass) error
}

// Pass hands an Analyzer one type-checked package to inspect.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
	suppressed  map[string]map[int]bool // filename -> line -> allow present
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Position resolves the diagnostic's position against fset.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}

// Reportf records a finding at pos unless a suppression comment covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Report records a finding unless the line it lands on — or the line above,
// for a standalone suppression comment — carries
// "//dimatch:allow <analyzer>".
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	position := p.Fset.Position(d.Pos)
	if lines := p.suppressed[position.Filename]; lines != nil {
		if lines[position.Line] || lines[position.Line-1] {
			return
		}
	}
	p.diagnostics = append(p.diagnostics, d)
}

// buildSuppressions indexes every //dimatch:allow comment that names this
// pass's analyzer (or "all"), by file and line.
func (p *Pass) buildSuppressions() {
	p.suppressed = make(map[string]map[int]bool)
	for _, f := range p.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				name, ok := parseAllow(c.Text)
				if !ok || (name != p.Analyzer.Name && name != "all") {
					continue
				}
				position := p.Fset.Position(c.Pos())
				lines := p.suppressed[position.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					p.suppressed[position.Filename] = lines
				}
				lines[position.Line] = true
			}
		}
	}
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

// Run applies each analyzer to the package and returns the surviving
// findings sorted by position. The Pass handed to every analyzer is fresh;
// analyzers cannot observe each other.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		pass.buildSuppressions()
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		out = append(out, pass.diagnostics...)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
