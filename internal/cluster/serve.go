// Package cluster keeps one forwarder, ServeStation, for benchmark/layers.go,
// which imports it by this path; the benchmark change that moves layers.go
// onto dimatch.ServeStation deletes this file. The cluster itself is package
// dimatch. This package's tests are dimatch's black-box tests, which use only
// its exported API; the tests that reach unexported state are at the root.
package cluster

import (
	"dimatch"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/transport"
)

// ServeStation is dimatch.ServeStation.
func ServeStation(id uint32, locals map[core.PersonID]pattern.Pattern, link transport.Link) error {
	return dimatch.ServeStation(id, locals, link)
}
