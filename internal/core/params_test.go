package core

import "testing"

func TestParamsValidate(t *testing.T) {
	valid := Params{Bits: 1024, Hashes: 4, Samples: 12, Epsilon: 1}
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
		{name: "bits above MaxBits", mutate: func(p *Params) { p.Bits = MaxBits + 1 }},
		{name: "hashes above MaxHashes", mutate: func(p *Params) { p.Hashes = MaxHashes + 1 }},
		{name: "samples above MaxSamples", mutate: func(p *Params) { p.Samples = MaxSamples + 1 }},
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
	if p.Samples != DefaultSamples {
		t.Fatalf("default samples = %d, want %d", p.Samples, DefaultSamples)
	}
	// Explicit values survive.
	p = Params{Bits: 64, Hashes: 2, Samples: 3}.withDefaults()
	if p.Samples != 3 {
		t.Fatal("withDefaults clobbered explicit values")
	}
}

func TestBand(t *testing.T) {
	if got := Band(2, 0); got != 2 {
		t.Fatalf("Band(2, 0) = %d, want 2", got)
	}
	if got := Band(2, 4); got != 10 {
		t.Fatalf("Band(2, 4) = %d, want 10 (= ε·(g+1))", got)
	}
	if got := Band(0, 9); got != 0 {
		t.Fatalf("Band(0, 9) = %d, want 0 (exact matching)", got)
	}
}
