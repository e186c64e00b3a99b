package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"dimatch"
	"dimatch/internal/core"
	"dimatch/internal/pattern"
	"dimatch/internal/placement"
)

// sizes are one workload's dials at one scale. Datasets are fixed per
// scale; the op counts (pool, upserts, segments, traced) are what fits a
// run into the time the contract allows. Every segment does identical work.
type sizes struct {
	persons, stations int
	pool              int   // entries per segment; one entry is one Search call
	segments          int   // measured segments at referenceSeconds
	upserts           int   // streamed upserts per segment (ingest_mixed only)
	snapshotBytes     int64 // WAL fold trigger of the stations (ingest_mixed only)
	traced            int   // entries the traced pass replays
	tracedSegments    int   // untraced segments the traced run keeps
	strata            int   // city query classes per category (see cityStrata)
	cycles            int   // cold set-up cycles per timed group, sized so a group lasts over a second
}

// workload is one named set of inputs. why goes to BENCHMARK.json verbatim.
type workload struct {
	name, why   string
	full, smoke sizes
	city        bool // dense synthetic city, else the sparse uniform population
	wal         bool // stations persist through the snapshot+WAL store
	batch       int  // queries per Search call
	opts        dimatch.Options
	verify      bool
}

// referenceSeconds is the measured time the segment counts below are sized
// for; -seconds scales the number of segments linearly, never a segment's
// work, and nothing is time-boxed.
const (
	referenceSeconds = 18
	replication      = 2
	sparseLength     = 24
	sparseValueRange = 1_000_000
	// setupGroups timed groups of cold set-up cycles; setup_s is the median
	// of the groups' per-cycle times.
	setupGroups = 3
	// datasetSeed fixes every population: only pools, upsert streams and
	// their order derive from -seed, so runs with different seeds do equal
	// work on equal data.
	datasetSeed = 20120612
)

var cityOpts = dimatch.Options{Params: dimatch.Params{Epsilon: 0}, TopK: 10}

var workloads = []workload{
	{
		name:  "point_routed",
		why:   "sparse placed population, digests prune ~62 of 64 stations: coordinator fixed costs (encode, plan, two small exchanges) are the whole latency",
		full:  sizes{persons: 100_000, stations: 64, pool: 256, segments: 7, traced: 200, tracedSegments: 3, cycles: 1},
		smoke: sizes{persons: 3_000, stations: 8, pool: 24, segments: 2, traced: 8, tracedSegments: 2, cycles: 1},
		batch: 1,
		opts:  dimatch.Options{Params: dimatch.Params{Epsilon: 1}, MinScore: 0.9},
	},
	{
		name:  "city_fanout",
		why:   "dense city, every digest admits: all 64 stations walk their residents, so station walk, reply codec, aggregation and rank dominate and routing is pure overhead",
		full:  sizes{persons: 20_000, stations: 64, pool: 84, segments: 7, traced: 84, tracedSegments: 3, strata: 14, cycles: 9},
		smoke: sizes{persons: 1_200, stations: 8, pool: 12, segments: 2, traced: 6, tracedSegments: 2, strata: 2, cycles: 1},
		city:  true,
		batch: 1,
		opts:  cityOpts,
	},
	{
		name:   "batch_verify",
		why:    "same city, 16 queries per search with verification: one large combined filter and frame per station plus the fetch round, the batched and verify paths",
		full:   sizes{persons: 20_000, stations: 64, pool: 12, segments: 7, traced: 12, tracedSegments: 3, strata: 14, cycles: 4},
		smoke:  sizes{persons: 1_200, stations: 8, pool: 3, segments: 2, traced: 2, tracedSegments: 2, strata: 2, cycles: 1},
		city:   true,
		batch:  16,
		opts:   cityOpts,
		verify: true,
	},
	{
		name:  "ingest_mixed",
		why:   "streamed upserts into WAL-backed stations, then point searches for fresh and untouched persons: stream, placement, wire, WAL append and fold beside reads",
		full:  sizes{persons: 200_000, stations: 16, pool: 80, segments: 7, upserts: 20_000, snapshotBytes: 2_600_000, traced: 60, tracedSegments: 4, cycles: 1},
		smoke: sizes{persons: 3_000, stations: 4, pool: 16, segments: 2, upserts: 400, snapshotBytes: 96 << 10, traced: 8, tracedSegments: 2, cycles: 1},
		wal:   true,
		batch: 1,
		opts:  dimatch.Options{Params: dimatch.Params{Epsilon: 1}, MinScore: 0.9},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) sizes(smoke bool) sizes {
	if smoke {
		return w.smoke
	}
	return w.full
}

func (w *workload) searchOptions() []dimatch.SearchOption {
	if w.verify {
		return []dimatch.SearchOption{dimatch.WithVerify(true)}
	}
	return nil
}

// residents is the benchmark's own copy of one station's data, in the
// shape core.MatchResidents walks. The replay matches against it and the
// digests of the replayed plan are built from it.
type residents struct {
	persons []core.PersonID
	locals  []pattern.Pattern
	at      map[core.PersonID]int
}

func (r *residents) upsert(p core.PersonID, local pattern.Pattern) {
	if i, ok := r.at[p]; ok {
		r.locals[i] = local
		return
	}
	r.at[p] = len(r.persons)
	r.persons = append(r.persons, p)
	r.locals = append(r.locals, local)
}

// dataset is a generated population. A sparse one is placed (patterns, R
// copies by rendezvous hash); a city is station-addressed (stationData).
// copies is the same data station by station, kept current under upserts.
type dataset struct {
	length      int
	stationIDs  []uint32
	patterns    map[dimatch.PersonID]dimatch.Pattern
	city        *dimatch.City
	stationData map[uint32]map[dimatch.PersonID]dimatch.Pattern
	copies      map[uint32]*residents
}

func newDataset(w *workload, sz sizes) (*dataset, error) {
	ds := &dataset{copies: make(map[uint32]*residents)}
	if w.city {
		city, err := dimatch.GenerateCity(dimatch.CityConfig{
			Seed: datasetSeed, Persons: sz.persons, Stations: sz.stations,
			Days: 3, IntervalsPerDay: 8, VolumeLevels: 17,
		})
		if err != nil {
			return nil, err
		}
		ds.city, ds.length, ds.stationData = city, city.Length(), dimatch.StationData(city)
		for id, locals := range ds.stationData {
			ds.stationIDs = append(ds.stationIDs, id)
			persons := make([]core.PersonID, 0, len(locals))
			for p := range locals {
				persons = append(persons, p)
			}
			sort.Slice(persons, func(i, j int) bool { return persons[i] < persons[j] })
			r := &residents{at: make(map[core.PersonID]int, len(persons))}
			for _, p := range persons {
				r.upsert(p, locals[p])
			}
			ds.copies[id] = r
		}
		sort.Slice(ds.stationIDs, func(i, j int) bool { return ds.stationIDs[i] < ds.stationIDs[j] })
		return ds, nil
	}
	ds.length = sparseLength
	rng := rand.New(rand.NewSource(datasetSeed))
	ds.patterns = make(map[dimatch.PersonID]dimatch.Pattern, sz.persons)
	for i := 0; i < sz.stations; i++ {
		id := uint32(i + 1)
		ds.stationIDs = append(ds.stationIDs, id)
		ds.copies[id] = &residents{at: make(map[core.PersonID]int)}
	}
	for i := 1; i <= sz.persons; i++ {
		p := dimatch.PersonID(i)
		ds.upsert(p, randomPattern(rng))
	}
	return ds, nil
}

func randomPattern(rng *rand.Rand) dimatch.Pattern {
	pat := make(dimatch.Pattern, sparseLength)
	for j := range pat {
		pat[j] = rng.Int63n(sparseValueRange)
	}
	return pat
}

// upsert records a placed person's current pattern in the benchmark's copy
// of the replica stations, exactly where Place and Stream put it.
func (ds *dataset) upsert(p dimatch.PersonID, pat dimatch.Pattern) {
	ds.patterns[p] = pat
	for _, sid := range placement.Pick(p, ds.stationIDs, replication) {
		ds.copies[sid].upsert(p, pat)
	}
}

// entry is one Search call of a pool: its queries and, parallel to them,
// the persons whose patterns they are. A sparse person must be ranked by
// its own query; a city entry must get want, the full-fan-out answer the
// reference pass fills in.
type entry struct {
	queries []dimatch.Query
	persons []dimatch.PersonID
	want    map[dimatch.QueryID][]dimatch.Result
}

func pointEntry(p dimatch.PersonID, pat dimatch.Pattern) entry {
	return entry{
		queries: []dimatch.Query{{ID: 1, Locals: []dimatch.Pattern{pat}}},
		persons: []dimatch.PersonID{p},
	}
}

// samplePersons draws n distinct person IDs from [1, persons], skipping
// any in exclude.
func samplePersons(rng *rand.Rand, persons, n int, exclude map[dimatch.PersonID]bool) []dimatch.PersonID {
	seen := make(map[dimatch.PersonID]bool, n)
	out := make([]dimatch.PersonID, 0, n)
	for len(out) < n {
		p := dimatch.PersonID(rng.Intn(persons) + 1)
		if seen[p] || exclude[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// sparsePool is n resident persons drawn by the seed, each searched by its
// own pattern.
func sparsePool(ds *dataset, rng *rand.Rand, n int) []entry {
	pool := make([]entry, 0, n)
	for _, p := range samplePersons(rng, len(ds.patterns), n, nil) {
		pool = append(pool, pointEntry(p, ds.patterns[p]))
	}
	return pool
}

// cityStrata lists, per stratum, the persons whose query is that stratum's
// query. The city has no per-person jitter, so persons of one category and
// volume level submit identical pattern sets; a stratum is one such query
// class, restricted to persons whose anchors sit on distinct stations (a
// merged anchor gives a query other members' pieces cannot partition).
// Strata depend on the dataset only: each category contributes perCategory
// of them, cycling through its classes from the most populous down. The seed then picks a
// member of every stratum, so pools of different seeds ask different
// persons' queries that cost the system exactly the same.
func cityStrata(ds *dataset, perCategory int) [][]dimatch.PersonID {
	var strata [][]dimatch.PersonID
	for _, cat := range dimatch.Categories() {
		classes := make(map[string][]dimatch.PersonID)
		for _, id := range ds.city.PersonsInCategory(cat) {
			person, err := ds.city.PersonByID(id)
			if err != nil {
				continue
			}
			locals := ds.city.QueryLocalsOf(id)
			if len(locals) != len(person.Anchors) {
				continue
			}
			parts := make([]string, len(locals))
			for i, l := range locals {
				parts[i] = fmt.Sprint(l)
			}
			sort.Strings(parts)
			class := strings.Join(parts, "")
			classes[class] = append(classes[class], dimatch.PersonID(id))
		}
		keys := make([]string, 0, len(classes))
		for k := range classes {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if ni, nj := len(classes[keys[i]]), len(classes[keys[j]]); ni != nj {
				return ni > nj
			}
			return keys[i] < keys[j]
		})
		for i := 0; i < perCategory && len(keys) > 0; i++ {
			strata = append(strata, classes[keys[i%len(keys)]])
		}
	}
	return strata
}

// cityPool builds n entries of batch queries each. The strata are visited
// with a stride coprime to their count, so a batch mixes categories and n
// entries cover every stratum evenly; the seed draws one member per
// stratum and shuffles the entry order.
func cityPool(ds *dataset, rng *rand.Rand, n, batch, strataPerCategory int) ([]entry, error) {
	strata := cityStrata(ds, strataPerCategory)
	if len(strata) == 0 {
		return nil, fmt.Errorf("city has no clean query classes")
	}
	stride := 7
	for gcd(stride, len(strata)) != 1 {
		stride++
	}
	pool := make([]entry, n)
	for e := range pool {
		for i := 0; i < batch; i++ {
			members := strata[(e*batch+i)*stride%len(strata)]
			p := members[rng.Intn(len(members))]
			pool[e].queries = append(pool[e].queries, dimatch.QueryFromPerson(ds.city, dimatch.QueryID(i+1), p))
			pool[e].persons = append(pool[e].persons, p)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// upsert is one streamed write: an existing person, a fresh pattern.
type upsert struct {
	person dimatch.PersonID
	pat    dimatch.Pattern
}

// ingestPlan is everything ingest_mixed does after set-up, fixed by the
// seed before any clock starts: per segment, the upserts (distinct persons
// within a segment, so arrival order cannot matter) and the entries first
// searched right after its flush, half for persons just upserted and half
// for persons no segment touches.
type ingestPlan struct {
	upserts  [][]upsert
	searches [][]entry
	probe    entry // an untouched person, valid at any time: the set-up search
}

func newIngestPlan(ds *dataset, rng *rand.Rand, nSegments, perSegment, searches int) ingestPlan {
	persons := len(ds.patterns)
	plan := ingestPlan{upserts: make([][]upsert, nSegments), searches: make([][]entry, nSegments)}
	fresh := searches / 2
	// A person searched right after its upsert is not upserted again, so
	// its entry stays valid for the passes after the last segment.
	searched := make(map[dimatch.PersonID]bool)
	touched := make(map[dimatch.PersonID]bool)
	for s := range plan.upserts {
		for _, p := range samplePersons(rng, persons, perSegment, searched) {
			touched[p] = true
			plan.upserts[s] = append(plan.upserts[s], upsert{person: p, pat: randomPattern(rng)})
		}
		for _, i := range rng.Perm(perSegment)[:fresh] {
			u := plan.upserts[s][i]
			searched[u.person] = true
			plan.searches[s] = append(plan.searches[s], pointEntry(u.person, u.pat))
		}
	}
	for s := range plan.searches {
		for _, p := range samplePersons(rng, persons, searches-fresh, touched) {
			touched[p] = true // an untouched person is asked for in one segment only
			plan.searches[s] = append(plan.searches[s], pointEntry(p, ds.patterns[p]))
		}
		plan.probe = plan.searches[s][fresh]
		rng.Shuffle(len(plan.searches[s]), func(i, j int) {
			plan.searches[s][i], plan.searches[s][j] = plan.searches[s][j], plan.searches[s][i]
		})
	}
	return plan
}

// poolDigest fingerprints a pool (and an ingest plan's writes) so tests
// and the env block can tell two runs asked the same questions in the same
// order.
func poolDigest(pools ...[]entry) uint64 {
	h := fnv.New64a()
	for _, pool := range pools {
		for _, e := range pool {
			for _, q := range e.queries {
				fmt.Fprint(h, q.ID, q.Locals)
			}
			fmt.Fprint(h, e.persons, "|")
		}
	}
	return h.Sum64()
}
