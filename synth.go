package dimatch

import (
	"dimatch/internal/cdr"
	"dimatch/internal/core"
)

// Synthetic-city vocabulary, aliased from the generator package. The
// generator replaces the paper's proprietary mobile-network dataset with a
// deterministic city exhibiting the same two structural observations
// DI-matching exploits (periodic, divisible category curves; within-
// category local-pattern similarity); internal/cdr's package comment
// describes how.
type (
	// CityConfig parameterizes a synthetic city.
	CityConfig = cdr.Config
	// City is a generated pattern-level dataset with ground-truth labels.
	City = cdr.Dataset
	// CityRecords is a generated record-level (CDR/CDL) capture.
	CityRecords = cdr.RecordSet
	// Category is a ground-truth occupation label.
	Category = cdr.Category
	// StationID identifies a base station in a synthetic city.
	StationID = cdr.StationID
	// CDR is one call detail record.
	CDR = cdr.CDR
	// CDL is one cell (base station) location row.
	CDL = cdr.CDL
)

// The six population categories of the synthetic city (Figure 1's curves).
const (
	OfficeWorker  = cdr.OfficeWorker
	Student       = cdr.Student
	NightShift    = cdr.NightShift
	Retiree       = cdr.Retiree
	FieldSales    = cdr.FieldSales
	Entertainment = cdr.Entertainment
)

// Categories returns all six synthetic categories.
func Categories() []Category { return cdr.Categories() }

// DefaultCityConfig returns a laptop-scale city: 310 persons (the paper's
// ground-truth study size), 64 stations, two days of 6-hour intervals.
func DefaultCityConfig() CityConfig { return cdr.DefaultConfig() }

// GenerateCity builds the pattern-level synthetic dataset.
func GenerateCity(cfg CityConfig) (*City, error) { return cdr.Generate(cfg) }

// GenerateCityRecords builds the full record-level capture; ExtractCity
// recovers the pattern dataset from records alone (the two paths are
// pinned equal by test).
func GenerateCityRecords(cfg CityConfig) (*CityRecords, error) { return cdr.GenerateRecords(cfg) }

// ExtractCity derives the pattern-level dataset from raw records, the way
// base stations process their CDR logs.
func ExtractCity(rs *CityRecords) (*City, error) { return cdr.Extract(rs) }

// StationData converts a synthetic city into the station-major pattern map
// a Cluster loads.
func StationData(city *City) map[uint32]map[PersonID]Pattern {
	out := make(map[uint32]map[PersonID]Pattern, len(city.StationIDs()))
	for _, s := range city.StationIDs() {
		locals := city.StationLocals(s)
		m := make(map[PersonID]Pattern, len(locals))
		for p, l := range locals {
			m[core.PersonID(p)] = l
		}
		out[uint32(s)] = m
	}
	return out
}

// QueryFromPerson builds the query a service provider would issue to find
// customers similar to one reference person: that person's per-station
// local patterns.
func QueryFromPerson(city *City, id QueryID, person PersonID) Query {
	return Query{ID: id, Locals: city.QueryLocalsOf(cdr.PersonID(person))}
}

// CleanReference returns a category exemplar whose role anchors occupy
// distinct stations, so their query locals expose the category's full
// split. A reference whose anchors collapsed onto one station has merged
// locals that other members' separate pieces cannot partition; providers
// would query with clean exemplars. ok is false if the category has none.
func CleanReference(city *City, c Category) (PersonID, bool) {
	for _, id := range city.PersonsInCategory(c) {
		if cdr.CleanExemplar(city, id) {
			return PersonID(id), true
		}
	}
	return 0, false
}

// RelevantSet returns the ground-truth relevant persons for a query built
// from the given person: everyone sharing their category (excluding the
// person themself, who is trivially retrieved).
func RelevantSet(city *City, person PersonID) []PersonID {
	p, err := city.PersonByID(cdr.PersonID(person))
	if err != nil {
		return nil
	}
	var out []PersonID
	for _, other := range city.PersonsInCategory(p.Category) {
		if other == p.ID {
			continue
		}
		out = append(out, core.PersonID(other))
	}
	return out
}
