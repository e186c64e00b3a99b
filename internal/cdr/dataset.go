package cdr

import (
	"sort"

	"dimatch/internal/pattern"
)

// Dataset is the pattern-level view of a synthetic city: per-station,
// per-person local communication patterns (Definition 1 values), plus the
// ground-truth category labels. It is what base stations load and what
// queries are built from.
type Dataset struct {
	Cfg     Config
	Persons []Person
	Cells   []CDL
	// locals[station][person] is the person's local pattern at that
	// station; only persons with activity there appear.
	locals map[StationID]map[PersonID]pattern.Pattern
}

// Length returns the pattern length (total intervals).
func (d *Dataset) Length() int { return d.Cfg.Length() }

// StationIDs returns every station that holds at least one local pattern,
// ascending.
func (d *Dataset) StationIDs() []StationID {
	out := make([]StationID, 0, len(d.locals))
	for s := range d.locals {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StationLocals returns the local patterns stored at one station. The
// returned map is the dataset's own storage; callers must not mutate it.
func (d *Dataset) StationLocals(s StationID) map[PersonID]pattern.Pattern {
	return d.locals[s]
}

// LocalsOf returns one person's local patterns keyed by station.
func (d *Dataset) LocalsOf(id PersonID) map[StationID]pattern.Pattern {
	out := make(map[StationID]pattern.Pattern)
	for s, persons := range d.locals {
		if p, ok := persons[id]; ok {
			out[s] = p
		}
	}
	return out
}

// GlobalOf returns the person's global pattern: the element-wise sum of
// their locals (Vi = Σj Vi,j — never materialized in the distributed
// system, but available here as ground truth).
func (d *Dataset) GlobalOf(id PersonID) pattern.Pattern {
	global := make(pattern.Pattern, d.Length())
	for _, persons := range d.locals {
		if p, ok := persons[id]; ok {
			for i, v := range p {
				global[i] += v
			}
		}
	}
	return global
}

// QueryLocalsOf returns the person's local patterns ordered by station ID:
// the pattern set a service provider would submit when searching for
// customers similar to this person.
func (d *Dataset) QueryLocalsOf(id PersonID) []pattern.Pattern {
	byStation := d.LocalsOf(id)
	stations := make([]StationID, 0, len(byStation))
	for s := range byStation {
		stations = append(stations, s)
	}
	sort.Slice(stations, func(i, j int) bool { return stations[i] < stations[j] })
	out := make([]pattern.Pattern, len(stations))
	for i, s := range stations {
		out[i] = byStation[s]
	}
	return out
}

// PersonByID returns the person record.
func (d *Dataset) PersonByID(id PersonID) (Person, error) {
	if int(id) < len(d.Persons) && d.Persons[id].ID == id {
		return d.Persons[id], nil
	}
	for _, p := range d.Persons {
		if p.ID == id {
			return p, nil
		}
	}
	return Person{}, ErrUnknownPerson
}

// CleanExemplar reports whether person id's role anchors occupy distinct
// stations, so their locals number their anchors and expose their
// category's full split. An exemplar whose anchors collapsed onto one
// station has merged locals that other members' separate pieces cannot
// partition. An unknown person is not clean.
func CleanExemplar(d *Dataset, id PersonID) bool {
	p, err := d.PersonByID(id)
	return err == nil && len(d.LocalsOf(id)) == len(p.Anchors)
}

// PersonsInCategory returns the IDs of all persons with the given label,
// ascending — the ground-truth relevant set for effectiveness metrics.
func (d *Dataset) PersonsInCategory(c Category) []PersonID {
	var out []PersonID
	for _, p := range d.Persons {
		if p.Category == c {
			out = append(out, p.ID)
		}
	}
	return out
}

// CategoryMean returns the mean global pattern of a category, as float64
// per interval (for the Figure 1a / Figure 3 reproductions).
func (d *Dataset) CategoryMean(c Category) []float64 {
	sum := make([]float64, d.Length())
	n := 0
	for _, p := range d.Persons {
		if p.Category != c {
			continue
		}
		g := d.GlobalOf(p.ID)
		for i, v := range g {
			sum[i] += float64(v)
		}
		n++
	}
	if n == 0 {
		return sum
	}
	for i := range sum {
		sum[i] /= float64(n)
	}
	return sum
}
