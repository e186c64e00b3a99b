// Package cdr is the data substrate of the reproduction: a deterministic,
// city-scale synthetic generator of mobile-phone Call Detail Records (CDR)
// and Cell Detail Lists (CDL), standing in for the paper's proprietary
// 2008 dataset (3.6M users, 5120 stations, ~1 TB).
//
// The generator is built around the two empirical properties DI-matching
// exploits:
//
//   - Observation 1 (periodicity/divisibility): each of six occupation
//     categories follows a periodic diurnal activity curve, and the
//     accumulated curves of different categories diverge over time.
//   - Observation 2 (local similarity): persons of one category share the
//     same home/work/leisure routine, so their per-station local patterns
//     are mutually similar, not just their global patterns.
//
// Generation is two-phase. Phase one derives exact integer target
// attributes (calls, duration minutes, distinct partners) per person,
// station and interval — category base curve plus bounded personal jitter,
// split across the person's anchor stations by the category's location
// schedule. Phase two synthesizes raw CDR records realizing those targets,
// and the extractor recovers the patterns from records alone. A property
// test pins the round trip: extract(synthesize(targets)) == targets.
package cdr

import (
	"errors"
	"fmt"
)

// PersonID identifies a mobile phone across the synthetic city.
type PersonID uint64

// StationID identifies a base station (cell).
type StationID uint32

// Category labels an occupation group, the ground truth for effectiveness
// experiments (paper Data set 2: 310 persons, six categories).
type Category int

// The six population categories, mirroring Figure 1's six curves.
const (
	OfficeWorker Category = iota + 1
	Student
	NightShift
	Retiree
	FieldSales
	Entertainment

	numCategories = 6
)

func (c Category) String() string {
	switch c {
	case OfficeWorker:
		return "office-worker"
	case Student:
		return "student"
	case NightShift:
		return "night-shift"
	case Retiree:
		return "retiree"
	case FieldSales:
		return "field-sales"
	case Entertainment:
		return "entertainment"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Categories returns all six categories in order.
func Categories() []Category {
	return []Category{OfficeWorker, Student, NightShift, Retiree, FieldSales, Entertainment}
}

// Config parameterizes a synthetic city.
type Config struct {
	// Seed makes the whole city reproducible. Two generators with equal
	// configs emit identical datasets.
	Seed uint64
	// Persons is the population size.
	Persons int
	// Stations is the number of base stations; they are laid out on a
	// square-ish grid (the paper's city: 5120 stations over 8700 km²).
	Stations int
	// Days is the observation window length in days.
	Days int
	// IntervalsPerDay sets the pattern resolution. The paper's default
	// interval is one minute but its figures aggregate to 6-hour units
	// (IntervalsPerDay = 4), which is also our default.
	IntervalsPerDay int
	// Noise bounds the per-interval personal jitter added to the category
	// base attributes. 0 makes every person an exact category clone.
	Noise int64
	// OutlierRate is the fraction of persons whose jitter range is doubled,
	// producing the occasional within-category outlier that keeps recall
	// realistically below 1.0 (Table II reports 0.99).
	OutlierRate float64
	// CategoryWeights optionally skews the category mix (six non-negative
	// values in category order; empty means uniform). Real populations are
	// not uniform over occupation segments, and the communication-cost
	// experiments query a minority segment as a provider would.
	CategoryWeights []float64
	// VolumeLevels quantizes per-person call volume into this many discrete
	// scale steps around the category mean (0 or 1 disables). It provides
	// within-category pattern diversity that survives exact (ε = 0)
	// matching: persons on the same level share identical patterns, persons
	// on different levels differ — the workload regime of the paper's
	// accuracy/efficiency sweep.
	VolumeLevels int
}

// DefaultConfig returns a laptop-scale city with the paper's figure
// resolution: 6-hour intervals over two days.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Persons:         310, // paper Data set 2 population
		Stations:        64,
		Days:            2,
		IntervalsPerDay: 4,
		Noise:           1,
		OutlierRate:     0.05,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Persons <= 0 {
		return fmt.Errorf("cdr: Persons = %d, want > 0", c.Persons)
	}
	if c.Stations <= 0 {
		return fmt.Errorf("cdr: Stations = %d, want > 0", c.Stations)
	}
	if c.Days <= 0 {
		return fmt.Errorf("cdr: Days = %d, want > 0", c.Days)
	}
	if c.IntervalsPerDay <= 0 || c.IntervalsPerDay > 24*60 {
		return fmt.Errorf("cdr: IntervalsPerDay = %d, want 1..1440", c.IntervalsPerDay)
	}
	if 24*60%c.IntervalsPerDay != 0 {
		return fmt.Errorf("cdr: IntervalsPerDay = %d must divide the 1440-minute day", c.IntervalsPerDay)
	}
	if c.Noise < 0 {
		return fmt.Errorf("cdr: Noise = %d, want >= 0", c.Noise)
	}
	if c.OutlierRate < 0 || c.OutlierRate > 1 {
		return fmt.Errorf("cdr: OutlierRate = %v, want [0,1]", c.OutlierRate)
	}
	if len(c.CategoryWeights) != 0 {
		if len(c.CategoryWeights) != numCategories {
			return fmt.Errorf("cdr: %d category weights, want %d", len(c.CategoryWeights), numCategories)
		}
		var sum float64
		for i, w := range c.CategoryWeights {
			if w < 0 {
				return fmt.Errorf("cdr: negative weight for category %v", Categories()[i])
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("cdr: category weights sum to %v, want > 0", sum)
		}
	}
	if c.VolumeLevels < 0 || c.VolumeLevels > 17 {
		return fmt.Errorf("cdr: VolumeLevels = %d, want 0..17 (scale steps of 5%% stay within ±40%%)", c.VolumeLevels)
	}
	return nil
}

// Length returns the total number of intervals in the window.
func (c Config) Length() int { return c.Days * c.IntervalsPerDay }

// intervalMinutes returns the interval width in minutes.
func (c Config) intervalMinutes() int { return 24 * 60 / c.IntervalsPerDay }

// ErrUnknownPerson is returned by dataset lookups for absent IDs.
var ErrUnknownPerson = errors.New("cdr: unknown person")
