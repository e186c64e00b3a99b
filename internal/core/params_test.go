package core

import (
	"strings"
	"testing"
)

func TestParamsValidate(t *testing.T) {
	valid := Params{Bits: 1024, Hashes: 4, Samples: 12, Epsilon: 1, Tolerance: ToleranceScaled}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{name: "zero bits", mutate: func(p *Params) { p.Bits = 0 }},
		{name: "zero hashes", mutate: func(p *Params) { p.Hashes = 0 }},
		{name: "negative hashes", mutate: func(p *Params) { p.Hashes = -2 }},
		{name: "zero samples", mutate: func(p *Params) { p.Samples = 0 }},
		{name: "negative epsilon", mutate: func(p *Params) { p.Epsilon = -1 }},
		{name: "bad tolerance", mutate: func(p *Params) { p.Tolerance = 99 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := valid
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestParamsWithDefaults(t *testing.T) {
	p := Params{Bits: 64, Hashes: 2}.withDefaults()
	if p.Tolerance != ToleranceScaled {
		t.Fatalf("default tolerance = %v", p.Tolerance)
	}
	if p.Samples != DefaultSamples {
		t.Fatalf("default samples = %d, want %d", p.Samples, DefaultSamples)
	}
	// Explicit values survive.
	p = Params{Bits: 64, Hashes: 2, Samples: 3, Tolerance: ToleranceAbsolute}.withDefaults()
	if p.Samples != 3 || p.Tolerance != ToleranceAbsolute {
		t.Fatal("withDefaults clobbered explicit values")
	}
}

func TestBand(t *testing.T) {
	scaled := Params{Epsilon: 2, Tolerance: ToleranceScaled}
	if got := scaled.band(0); got != 2 {
		t.Fatalf("scaled band(0) = %d, want 2", got)
	}
	if got := scaled.band(4); got != 10 {
		t.Fatalf("scaled band(4) = %d, want 10 (= ε·(g+1))", got)
	}
	abs := Params{Epsilon: 2, Tolerance: ToleranceAbsolute}
	if got := abs.band(4); got != 2 {
		t.Fatalf("absolute band(4) = %d, want 2", got)
	}
}

func TestToleranceModeString(t *testing.T) {
	if ToleranceScaled.String() != "scaled" || ToleranceAbsolute.String() != "absolute" {
		t.Fatal("mode strings wrong")
	}
	if !strings.Contains(ToleranceMode(42).String(), "42") {
		t.Fatal("unknown mode string should carry the value")
	}
}
