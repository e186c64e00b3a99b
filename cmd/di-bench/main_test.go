package main

import (
	"bytes"
	"strings"
	"testing"

	"dimatch"
)

// titles maps every experiment name to the heading its renderer prints. A
// name added to the table without a row here fails TestEveryExperimentRuns;
// a row whose experiment is gone fails TestRunAllRunsEachOnce.
var titles = map[string]string{
	"fig1a":      "Figure 1(a)",
	"fig1b":      "Figure 1(b)",
	"fig3":       "Figure 3",
	"conv":       "Convergence study",
	"fig4":       "Figure 4(a)",
	"table2":     "Table II",
	"salting":    "position salting",
	"tolerance":  "scaled vs absolute",
	"sizing":     "Filter sizing sweep",
	"resilience": "Failure injection",
}

func TestEveryExperimentRuns(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			title, ok := titles[e.name]
			if !ok {
				t.Fatalf("experiment %q has no expected title", e.name)
			}
			var out bytes.Buffer
			if err := runExperiments(&out, e.name, true, dimatch.StrategyWBF); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), title) {
				t.Fatalf("output lacks %q:\n%s", title, out.String())
			}
			for other, otherTitle := range titles {
				if other != e.name && strings.Contains(out.String(), otherTitle) {
					t.Fatalf("-run %s also printed %q", e.name, otherTitle)
				}
			}
		})
	}
}

func TestRunAllRunsEachOnce(t *testing.T) {
	var out bytes.Buffer
	if err := runExperiments(&out, "all", true, dimatch.StrategyBF); err != nil {
		t.Fatal(err)
	}
	for name, title := range titles {
		if n := strings.Count(out.String(), title); n != 1 {
			t.Errorf("-run all printed %s's title %q %d times, want 1", name, title, n)
		}
	}
}

func TestUnknownExperimentListsNames(t *testing.T) {
	var out bytes.Buffer
	err := runExperiments(&out, "routing", true, dimatch.StrategyWBF)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not list %q", err, e.name)
		}
	}
	if out.Len() != 0 {
		t.Errorf("unknown experiment printed %q", out.String())
	}
}
