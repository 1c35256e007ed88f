package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/tasti"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{2000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 80},
		{50, 80}, {49, 75}, {40, 75}, {39, 0}, {0, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p != 0 && beyond(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%d leaves %.1f samples beyond", tc.n, p, beyond(tc.n, p))
		}
	}
}

// Each workload's fixed tail percentile must follow the rule at the
// request count the workload expects.
func TestWorkloadTailsFollowTheRule(t *testing.T) {
	for _, w := range workloads {
		for _, route := range routes {
			if got, want := w.tail[route], tailPercentile(w.expected[route]); got != want {
				t.Errorf("%s %s: tail p%d, rule gives p%d for %d requests", w.name, route, got, want, w.expected[route])
			}
		}
	}
}

// A phase run on every boot starts right after an earlier boot is ready,
// so it can be neither the timed window nor wait for earlier ingests.
func TestEveryBootPhasesStandAlone(t *testing.T) {
	for _, w := range workloads {
		for _, ph := range w.phases {
			if ph.everyBoot && (ph.timed || ph.waitApplied) {
				t.Errorf("%s %s: an every-boot phase must be untimed and must not wait for applies", w.name, ph.name)
			}
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {75, 4}, {90, 4.6}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2, 5}) {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// A parent's self time excludes the union of its children's intervals:
// overlapping children count once, a child running past its parent is
// clipped, and grandchildren only reduce their own parent.
func TestSelfTimeSubtractsNestedCalls(t *testing.T) {
	r := &recorder{spans: []span{
		{name: "request", parent: -1, start: ms(0), end: ms(100)},
		{name: "estimate", parent: 0, start: ms(10), end: ms(60)},
		{name: "label", parent: 1, start: ms(15), end: ms(20)},
		{name: "label", parent: 1, start: ms(18), end: ms(25)}, // overlaps the first
		{name: "label", parent: 1, start: ms(40), end: ms(70)}, // runs past its parent
		{name: "propagate", parent: 0, start: ms(55), end: ms(80)},
		{name: "unfinished", parent: 0, start: ms(90), end: -1},
	}}
	got := r.selfByName()
	want := map[string]time.Duration{
		"request":   ms(100 - 70), // children cover [10,80]
		"estimate":  ms(50 - 30),  // labels cover [15,25] and [40,60]
		"label":     ms(5 + 7 + 30),
		"propagate": ms(25),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfByName() = %v, want %v", got, want)
	}
}

func TestRecorderTimesRealNesting(t *testing.T) {
	r := newRecorder()
	root := r.begin("request", -1)
	r.time("outer", root, func() {
		time.Sleep(2 * time.Millisecond)
		r.time("inner", 1, func() { time.Sleep(5 * time.Millisecond) })
	})
	r.end(root)
	self := r.selfByName()
	if self["inner"] < 5*time.Millisecond {
		t.Errorf("inner self %v < its sleep", self["inner"])
	}
	if self["outer"] >= 5*time.Millisecond || self["outer"] < 2*time.Millisecond {
		t.Errorf("outer self %v should hold its own sleep only", self["outer"])
	}
	if sum := self["request"] + self["outer"] + self["inner"]; sum != r.duration(root) {
		t.Errorf("self times sum to %v, the request took %v", sum, r.duration(root))
	}
}

func video(cars int) tasti.Annotation {
	var a tasti.VideoAnnotation
	for i := 0; i < cars; i++ {
		a.Boxes = append(a.Boxes, tasti.Box{Class: "car"})
	}
	return a
}

func fptr(f float64) *float64 { return &f }
func iptr(i int) *int         { return &i }

func TestOutputChecksRejectCorruptedResponses(t *testing.T) {
	agg := request{Route: routeAggregate, Class: "car", Err: 0.05, Count: 1}
	lim := request{Route: routeLimit, Class: "car", Count: 2, K: 3}
	truth := func(id int) (tasti.Annotation, bool) {
		if id < 0 || id >= 10 {
			return nil, false
		}
		return video(id % 4), true // ids 2,3,6,7 have at least two cars
	}
	cases := []struct {
		name string
		err  error
		bad  bool
	}{
		{"aggregate ok", checkAggregate(agg, response{Estimate: fptr(1.2), HalfWidth: 0.05}), false},
		{"aggregate degraded wide", checkAggregate(agg, response{Estimate: fptr(1.2), HalfWidth: 0.4, Degraded: true}), false},
		{"aggregate missing estimate", checkAggregate(agg, response{HalfWidth: 0.01}), true},
		{"aggregate NaN", checkAggregate(agg, response{Estimate: fptr(math.NaN())}), true},
		{"aggregate Inf", checkAggregate(agg, response{Estimate: fptr(math.Inf(1))}), true},
		{"aggregate half width over err", checkAggregate(agg, response{Estimate: fptr(1.2), HalfWidth: 0.0501}), true},

		{"select ok", checkSelect(response{Returned: 5, SampleIDs: []int{0, 3, 9}}, 10), false},
		{"select duplicate", checkSelect(response{Returned: 5, SampleIDs: []int{0, 3, 3}}, 10), true},
		{"select descending", checkSelect(response{Returned: 5, SampleIDs: []int{3, 1}}, 10), true},
		{"select out of range", checkSelect(response{Returned: 5, SampleIDs: []int{0, 10}}, 10), true},
		{"select negative", checkSelect(response{Returned: 5, SampleIDs: []int{-1, 2}}, 10), true},
		{"select returned too small", checkSelect(response{Returned: 1, SampleIDs: []int{0, 3}}, 10), true},

		{"limit ok", checkLimit(lim, response{Found: []int{2, 7, 6}}, truth), false},
		{"limit over k", checkLimit(lim, response{Found: []int{2, 3, 6, 7}}, truth), true},
		{"limit false match", checkLimit(lim, response{Found: []int{2, 5}}, truth), true},
		{"limit unknown id", checkLimit(lim, response{Found: []int{2, 12}}, truth), true},

		{"ingest ok", checkIngest(response{Base: iptr(100), Count: 16}, 100, 16), false},
		{"ingest missing base", checkIngest(response{Count: 16}, 100, 16), true},
		{"ingest gap", checkIngest(response{Base: iptr(116), Count: 16}, 100, 16), true},
		{"ingest short", checkIngest(response{Base: iptr(100), Count: 15}, 100, 16), true},
	}
	for _, tc := range cases {
		if (tc.err != nil) != tc.bad {
			t.Errorf("%s: err = %v, want rejection %v", tc.name, tc.err, tc.bad)
		}
	}
}

// checkExchanges holds ingest acknowledgements to one contiguous ID
// sequence and judges limits against ingested records too.
func TestCheckExchangesFollowsIngestedRecords(t *testing.T) {
	base := &tasti.Dataset{Records: make([]tasti.Record, 2), Truth: []tasti.Annotation{video(0), video(0)}}
	ic := ingestCorpus{ds: &tasti.Dataset{}}
	for i := 0; i < batchRecords; i++ {
		ic.ds.Records = append(ic.ds.Records, tasti.Record{ID: i, Features: []float64{0}})
		ic.ds.Truth = append(ic.ds.Truth, video(i%2*3))
	}
	exs := []exchange{
		{req: request{Route: routeIngest, Batch: 0}, resp: response{Base: iptr(2), Count: batchRecords}},
		{req: request{Route: routeLimit, Class: "car", Count: 3, K: 2}, resp: response{Found: []int{3, 5}}},
		{req: request{Route: routeLimit, Class: "car", Count: 3, K: 2}, resp: response{Found: []int{2}}},
		{req: request{Route: routeIngest, Batch: 1}, resp: response{Base: iptr(2), Count: batchRecords}},
	}
	acked := checkExchanges(exs, base, ic)
	if len(acked) != batchRecords {
		t.Fatalf("acked %d records, want %d", len(acked), batchRecords)
	}
	for i, want := range []bool{true, true, false, false} {
		if exs[i].ok() != want {
			t.Errorf("exchange %d: ok=%v (%v), want %v", i, exs[i].ok(), exs[i].err, want)
		}
	}
}

func TestWilliamsBalancesNeighbours(t *testing.T) {
	for _, n := range []int{2, 3, 4, 9} {
		rows := williams(n)
		pairs := make(map[[2]int]int)
		for _, row := range rows {
			sorted := slices.Clone(row)
			slices.Sort(sorted)
			if !reflect.DeepEqual(sorted, seqTo(n)) {
				t.Fatalf("n=%d: row %v is not a permutation", n, row)
			}
			for j := 1; j < n; j++ {
				pairs[[2]int{row[j-1], row[j]}]++
			}
		}
		want := 1 + n%2
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b && pairs[[2]int{a, b}] != want {
					t.Errorf("n=%d: pair (%d,%d) occurs %d times, want %d", n, a, b, pairs[[2]int{a, b}], want)
				}
			}
		}
	}
}

func seqTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestQueryMixDealsEqualSharesDeterministically(t *testing.T) {
	seq := func(seed int64) []request {
		gens := queryMix.phases[0].clients(seed)
		if gens[0] != gens[1] {
			t.Fatal("the window's clients should share one sequence")
		}
		var out []request
		for i := 0; i < 2*162; i++ {
			q, _ := gens[i%2].next()
			out = append(out, q)
		}
		return out
	}
	a := seq(7)
	if !reflect.DeepEqual(a, seq(7)) {
		t.Error("the same seed gave different requests")
	}
	if reflect.DeepEqual(a, seq(8)) {
		t.Error("different seeds gave the same requests")
	}
	perRoute := make(map[string]int)
	perParams := make(map[request]int)
	for _, q := range a {
		perRoute[q.Route]++
		perParams[q]++
	}
	third := len(a) / 3
	for _, route := range []string{routeAggregate, routeSelect, routeLimit} {
		if perRoute[route] != third {
			t.Errorf("%s: %d of %d requests, want %d", route, perRoute[route], len(a), third)
		}
	}
	for _, g := range [][]request{aggregateGrid(aggregateErrs...), selectGrid, limitGrid} {
		for _, q := range g {
			if perParams[q] != third/len(g) {
				t.Errorf("%+v sent %d times, want %d", q, perParams[q], third/len(g))
			}
		}
	}
	// Every stretch of whole rows (9 requests) has each aggregate error
	// target once.
	for i := 0; i+9 <= len(a); i += 9 {
		errs := make(map[float64]int)
		for _, q := range a[i : i+9] {
			if q.Route == routeAggregate {
				errs[q.Err]++
			}
		}
		for _, e := range aggregateErrs {
			if errs[e] != 1 {
				t.Fatalf("requests %d..%d carry err %v %d times, want once", i, i+8, e, errs[e])
			}
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the driver
// reports, with the same units.
func TestBenchmarkJSONMatchesTheDriver(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, driver has %v", names, want)
	}
	for _, tc := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: %d metrics, driver has %d", tc.kind, len(tc.got), len(tc.want))
			continue
		}
		for i, m := range tc.want {
			if tc.got[i].Name != m.name || tc.got[i].Unit != m.unit {
				t.Errorf("%s[%d]: %s %s, driver has %s %s", tc.kind, i, tc.got[i].Name, tc.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
