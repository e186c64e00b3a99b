// Package analyzers registers the repo's invariant checkers for the suite
// test (TestRepoIsClean), their one runner. See docs/ANALYZERS.md for what
// each pass enforces and how to suppress a finding.
package analyzers

import (
	"dimatch/internal/analyzers/analysis"
	"dimatch/internal/analyzers/ctxflow"
	"dimatch/internal/analyzers/epochpin"
	"dimatch/internal/analyzers/lockio"
	"dimatch/internal/analyzers/wirekind"
)

// All is every analyzer the suite test runs, in reporting order.
var All = []*analysis.Analyzer{
	wirekind.Analyzer,
	epochpin.Analyzer,
	lockio.Analyzer,
	ctxflow.Analyzer,
}
