package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"

	"repro/tasti"
)

// Server configuration shared by every workload: the night-street corpus,
// seed 1, two workers, and the default trained build (600 training labels,
// 900 representatives).
const (
	corpus       = "night-street"
	serverSeed   = 1
	parallelism  = 2
	trainBudget  = 600
	numReps      = 900
	batchRecords = 16 // records per POST /ingest
)

// Routes, by the name the metrics use.
const (
	routeAggregate = "aggregate"
	routeSelect    = "select"
	routeLimit     = "limit"
	routeIngest    = "ingest"
)

var routes = []string{routeAggregate, routeSelect, routeLimit, routeIngest}

func routePath(route string) string {
	if route == routeIngest {
		return "/ingest"
	}
	return "/query/" + route
}

func isQuery(route string) bool { return route != routeIngest }

// request is one operation a client sends. Query fields marshal into the
// /query/* body; an ingest request names a batch of the ingest corpus.
type request struct {
	Route  string  `json:"-"`
	Class  string  `json:"class,omitempty"`
	Count  int     `json:"count,omitempty"`
	Err    float64 `json:"err,omitempty"`
	Recall float64 `json:"recall,omitempty"`
	K      int     `json:"k,omitempty"`
	Crack  bool    `json:"crack,omitempty"`
	Batch  int     `json:"-"`
}

// predicate is the server's predicate for a video query: at least Count
// objects of Class.
func (q request) predicate() func(tasti.Annotation) bool {
	return func(a tasti.Annotation) bool {
		return a.(tasti.VideoAnnotation).Count(q.Class) >= q.Count
	}
}

// The parameter grids the query mixes draw from.
var (
	aggregateErrs = []float64{0.03, 0.05, 0.08}
	selectGrid    = grid(func(add func(request)) {
		for _, c := range []int{1, 2, 3} {
			for _, r := range []float64{0.8, 0.9, 0.95} {
				add(request{Route: routeSelect, Class: "car", Count: c, Recall: r})
			}
		}
	})
	limitGrid = grid(func(add func(request)) {
		for _, c := range []int{2, 3, 4, 5} {
			for _, k := range []int{5, 10, 20} {
				add(request{Route: routeLimit, Class: "car", Count: c, K: k})
			}
		}
	})
)

// aggregateGrid returns the aggregates at the given error targets, each
// with count 1 and 2.
func aggregateGrid(errs ...float64) []request {
	return grid(func(add func(request)) {
		for _, e := range errs {
			for _, c := range []int{1, 2} {
				add(request{Route: routeAggregate, Class: "car", Err: e, Count: c})
			}
		}
	})
}

func grid(fill func(add func(request))) []request {
	var out []request
	fill(func(q request) { out = append(out, q) })
	return out
}

// cycler deals the indexes 0..n-1 in seeded random order and reshuffles
// after each pass, so every item gets an equal share over whole passes.
type cycler struct {
	r     *rand.Rand
	order []int
	pos   int
}

func newCycler(r *rand.Rand, n int) *cycler {
	return &cycler{r: r, order: r.Perm(n)}
}

func (c *cycler) next() int {
	if c.pos == len(c.order) {
		c.order = c.r.Perm(len(c.order))
		c.pos = 0
	}
	c.pos++
	return c.order[c.pos-1]
}

// generator yields one closed-loop client's request sequence; ok is false
// once a finite sequence ends.
type generator interface {
	next() (q request, ok bool)
}

// mixGen deals requests from a fixed list of kinds, each kind drawing its
// parameters from its own grid.
type mixGen struct {
	kinds  *cycler
	pick   []func() request
	remain int // < 0: unbounded
}

func (g *mixGen) next() (request, bool) {
	if g.remain == 0 {
		return request{}, false
	}
	if g.remain > 0 {
		g.remain--
	}
	return g.pick[g.kinds.next()](), true
}

// clientRand returns the seeded source of one client of one phase.
func clientRand(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// draw returns a picker dealing g's requests in equal shares, crack set as
// given.
func draw(r *rand.Rand, g []request, crack bool) func() request {
	c := newCycler(r, len(g))
	return func() request {
		q := g[c.next()]
		q.Crack = crack
		return q
	}
}

func newMix(r *rand.Rand, n int, pick ...func() request) *mixGen {
	return &mixGen{kinds: newCycler(r, len(pick)), pick: pick, remain: n}
}

// pairedMix is one request sequence shared by all clients of a phase, in
// which every request kind is preceded by each other kind equally often.
// With two closed-loop clients and tastiserve's one-slot index semaphore,
// service strictly alternates between the clients, so each request waits
// for exactly the request dealt before it: balancing the neighbours fixes
// the share of, say, selects that queue behind a slow aggregate, instead
// of leaving it to how two independent sequences happen to interleave.
// The sequence runs through the rows of a Williams design, each row a
// permutation of the kinds, so any stretch of whole rows also has every
// kind in equal shares. The seed relabels the kinds and orders the rows.
type pairedMix struct {
	mu    sync.Mutex
	r     *rand.Rand
	rows  [][]int
	order []int // row order of the current pass
	pos   int   // position within the pass
	kinds []func() request
}

func newPairedMix(r *rand.Rand, kinds ...func() request) *pairedMix {
	relabel := r.Perm(len(kinds))
	rows := williams(len(kinds))
	for _, row := range rows {
		for j, k := range row {
			row[j] = relabel[k]
		}
	}
	return &pairedMix{r: r, rows: rows, order: r.Perm(len(rows)), kinds: kinds}
}

func (g *pairedMix) next() (request, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.kinds)
	if g.pos == len(g.rows)*n {
		g.order = g.r.Perm(len(g.rows))
		g.pos = 0
	}
	k := g.rows[g.order[g.pos/n]][g.pos%n]
	g.pos++
	return g.kinds[k](), true
}

// williams returns the rows of a Williams design over n kinds: each row is
// a permutation of 0..n-1, and across the rows every ordered pair of
// distinct kinds occurs as neighbours within a row equally often (once for
// even n, twice for odd n, which needs the n mirrored rows too).
func williams(n int) [][]int {
	first := make([]int, n) // 0, 1, n-1, 2, n-2, ...
	for j := 1; j < n; j++ {
		if j%2 == 1 {
			first[j] = (j + 1) / 2
		} else {
			first[j] = n - j/2
		}
	}
	var rows [][]int
	for i := 0; i < n; i++ {
		row := make([]int, n)
		for j := range row {
			row[j] = (first[j] + i) % n
		}
		rows = append(rows, row)
	}
	if n%2 == 1 {
		for i := 0; i < n; i++ {
			rows = append(rows, slices.Clone(rows[i]))
			slices.Reverse(rows[len(rows)-1])
		}
	}
	return rows
}

// ingestGen posts consecutive batches of the ingest corpus.
type ingestGen struct {
	nextBatch int
	remain    int // < 0: unbounded
}

func (g *ingestGen) next() (request, bool) {
	if g.remain == 0 {
		return request{}, false
	}
	if g.remain > 0 {
		g.remain--
	}
	g.nextBatch++
	return request{Route: routeIngest, Batch: g.nextBatch - 1}, true
}

// phase is one stage of a workload's load. A timed phase runs its clients
// in a closed loop for the run's --seconds; an untimed one until the first
// client's sequence ends. measures names the routes whose end-to-end
// metrics come from this phase.
type phase struct {
	name        string
	timed       bool
	waitApplied bool // first wait until every acknowledged ingest is queryable
	// everyBoot runs an untimed phase on each boot timed for setup_s, the
	// earlier ones just after they are ready, so its metrics pool
	// measurements taken at several times in the run instead of one.
	everyBoot bool
	measures  []string
	clients   func(seed int64) []generator
}

// workload is one traffic mix against one server set-up.
type workload struct {
	name, why    string
	records      int
	shards       int
	fromSnapshot bool // boot from a prebuilt snapshot instead of building
	ingestSize   int  // records in the ingest corpus
	phases       []phase
	// expected is the request count per route a run made on the reference
	// machine (2 CPUs, AVX2) at the run length BENCHMARK.json sets, over
	// all of its boots; tail fixes each route's tail percentile from it by
	// tailPercentile, so the percentile does not move between runs.
	expected map[string]int
	tail     map[string]int
}

var workloads = []*workload{queryMix, ingestCrack}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// queryMix is the read path of the paper's three query types on a fresh
// trained build.
var queryMix = &workload{
	name: "query_mix",
	why: "The read path of the paper's three query types on a fresh trained build: the aggregation " +
		"estimator takes most of the query CPU and triplet training most of the set-up; the WAL, " +
		"snapshot and crack layers do no work in the timed window.",
	records:    20000,
	shards:     1,
	ingestSize: 64 * batchRecords,
	phases: []phase{
		{
			name: "window", timed: true,
			measures: []string{routeAggregate, routeSelect, routeLimit},
			clients: func(seed int64) []generator {
				// Nine kinds in equal shares: one per aggregate error
				// target, and three each of select and limit, so the
				// three routes have equal shares too.
				r := clientRand(seed, "query_mix/window")
				var kinds []func() request
				for _, e := range aggregateErrs {
					kinds = append(kinds, draw(r, aggregateGrid(e), false))
				}
				sel, lim := draw(r, selectGrid, false), draw(r, limitGrid, false)
				kinds = append(kinds, sel, sel, sel, lim, lim, lim)
				mix := newPairedMix(r, kinds...)
				return []generator{mix, mix}
			},
		},
		{
			// The window posts no ingest; this probe gives the ingest
			// metrics a value. Selects run beside it, so each ack waits for
			// about one select rather than on fsync jitter alone. The probe
			// ends with the ingest client's last batch. Selects slow down
			// as appended records pile up (over 480 batches the ack latency
			// doubled), so the probe stays short, and it runs once on each
			// boot: the same 64 batches against a fresh corpus each time,
			// so its metrics pool three stretches of the run, not one.
			name: "ingest_probe", measures: []string{routeIngest}, everyBoot: true,
			clients: func(seed int64) []generator {
				r := clientRand(seed, "query_mix/ingest")
				return []generator{
					&ingestGen{remain: 64},
					newMix(r, -1, draw(r, selectGrid, false)),
				}
			},
		},
		{
			// Cracking limits after the window give the crack layer work
			// in the traced replay; no end-to-end metric reads them.
			name: "crack_probe", waitApplied: true,
			clients: func(seed int64) []generator {
				r := clientRand(seed, "query_mix/crack")
				return []generator{newMix(r, 16, draw(r, limitGrid, true))}
			},
		},
	},
	expected: map[string]int{routeAggregate: 75, routeSelect: 75, routeLimit: 75, routeIngest: 192},
	tail:     map[string]int{routeAggregate: 80, routeSelect: 80, routeLimit: 80, routeIngest: 90},
}

// ingestCrack is writes beside reads on a larger, sharded corpus booted
// from a snapshot.
var ingestCrack = &workload{
	name: "ingest_crack",
	why: "Writes beside reads on a 4x larger sharded corpus booted from a snapshot: select sampling, " +
		"limit ordering, shard merge, WAL fsync, appends and crack rescans do the work; training and " +
		"the estimator do none in the timed window.",
	records:      80000,
	shards:       2,
	fromSnapshot: true,
	ingestSize:   1024 * batchRecords,
	phases: []phase{
		{
			// The window sends no aggregates; this probe measures them on
			// the freshly booted sharded corpus before the window, so its
			// work does not depend on which records the seed ingests.
			name:     "aggregate_probe",
			measures: []string{routeAggregate},
			clients: func(seed int64) []generator {
				// The mix's cheapest error target, so a hundred aggregates
				// over the 80k corpus take about seven seconds.
				r := clientRand(seed, "ingest_crack/aggregate")
				return []generator{newMix(r, 100, draw(r, aggregateGrid(0.08), false))}
			},
		},
		{
			// Reads are select, limit and cracking limit in shares 2:3:3,
			// so half the limits crack. Each ingest ack waits for one read
			// to release the index, so a quarter of acks wait for a
			// select: the ingest median stays clear of the select mode and
			// the tail inside it. A select takes ~17x a limit, so against
			// shares 1:1:1 this raises the limits in a window from ~110 to
			// ~180 for about as many selects: the limit tail (p90) rests
			// on 18 samples beyond it instead of 11.
			name: "window", timed: true,
			measures: []string{routeSelect, routeLimit, routeIngest},
			clients: func(seed int64) []generator {
				r := clientRand(seed, "ingest_crack/reads")
				sel, lim, crack := draw(r, selectGrid, false), draw(r, limitGrid, false), draw(r, limitGrid, true)
				return []generator{
					&ingestGen{remain: -1},
					newMix(r, -1, sel, sel, lim, lim, lim, crack, crack, crack),
				}
			},
		},
	},
	expected: map[string]int{routeAggregate: 100, routeSelect: 60, routeLimit: 180, routeIngest: 240},
	tail:     map[string]int{routeAggregate: 90, routeSelect: 80, routeLimit: 90, routeIngest: 95},
}

// ingestSeed derives the ingest corpus's generation seed from the workload
// seed. It is always even, so it never equals the base corpus's seed 1 and
// ingested records are never copies of base records.
func ingestSeed(seed int64) int64 { return 2*seed + 2 }
