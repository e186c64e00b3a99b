package cdr

import "fmt"

// CallType distinguishes record directions, mirroring the paper's CDR
// schema ("mobile phone ID, call type ID, opposite mobile phone ID, start
// time, call duration, ... and call moment").
type CallType int

const (
	// MobileOriginated is an outgoing call (the only type the generator
	// emits; patterns are defined over calls a person makes).
	MobileOriginated CallType = iota + 1
	// MobileTerminated is an incoming call, accepted by the extractor but
	// not counted into communication patterns.
	MobileTerminated
)

// CDR is one Call Detail Record as stored at a base station.
type CDR struct {
	Caller   PersonID
	Type     CallType
	Callee   PersonID
	Station  StationID
	Day      int
	StartSec int // seconds since midnight of Day
	DurSec   int
}

// CDL is one Cell Detail List row: a base station and its location (km).
type CDL struct {
	Station StationID
	X, Y    float64
}

// RecordSet is a full synthetic capture: the city layout, the labelled
// population and every CDR of the observation window, station-major like
// the real deployment ("the communication data are distributively stored in
// base stations").
type RecordSet struct {
	Cfg     Config
	Persons []Person
	Cells   []CDL
	// Records holds each station's CDRs, indexed by station.
	Records map[StationID][]CDR
}

// stationSpacingKm mimics the paper's density: 8700 km² / 5120 stations
// ≈ 1.7 km² per cell, i.e. ~1.3 km spacing.
const stationSpacingKm = 1.3

// layoutCells places cfg.Stations cells on a grid.
func layoutCells(cfg Config) []CDL {
	gw, _ := gridDims(cfg)
	cells := make([]CDL, cfg.Stations)
	for s := 0; s < cfg.Stations; s++ {
		cells[s] = CDL{
			Station: StationID(s),
			X:       float64(s%gw) * stationSpacingKm,
			Y:       float64(s/gw) * stationSpacingKm,
		}
	}
	return cells
}

// synthesizeInterval emits CDRs realizing one exact target triple for one
// person at one station in one interval: t.calls records whose durations
// sum to t.minutes*60 seconds and whose callees cover exactly t.partners
// distinct contacts.
func synthesizeInterval(cfg Config, person Person, station StationID, day, interval int, t triple, contacts []PersonID) ([]CDR, error) {
	if t.calls == 0 {
		return nil, nil
	}
	if t.partners < 1 || t.partners > t.calls {
		return nil, fmt.Errorf("cdr: unrealizable triple %+v for person %d", t, person.ID)
	}
	if int64(len(contacts)) < t.partners {
		return nil, fmt.Errorf("cdr: contact pool %d too small for %d partners", len(contacts), t.partners)
	}
	recs := make([]CDR, 0, t.calls)
	intervalSec := cfg.intervalMinutes() * 60
	startBase := interval * intervalSec
	spacing := intervalSec / int(t.calls)
	if spacing == 0 {
		spacing = 1
	}
	totalSec := t.minutes * 60
	baseDur := totalSec / t.calls
	extra := totalSec % t.calls
	for i := int64(0); i < t.calls; i++ {
		callee := contacts[0]
		if i < t.partners {
			callee = contacts[i]
		}
		dur := baseDur
		if i < extra {
			dur++
		}
		recs = append(recs, CDR{
			Caller:   person.ID,
			Type:     MobileOriginated,
			Callee:   callee,
			Station:  station,
			Day:      day,
			StartSec: startBase + int(i)*spacing,
			DurSec:   int(dur),
		})
	}
	return recs, nil
}
