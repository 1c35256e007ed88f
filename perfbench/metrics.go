package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/tasti"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the server sees, measured over HTTP
// with tracing off. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"agg_p50_ms", "ms"}, {"agg_tail_ms", "ms"},
	{"select_p50_ms", "ms"}, {"select_tail_ms", "ms"},
	{"limit_p50_ms", "ms"}, {"limit_tail_ms", "ms"},
	{"ingest_p50_ms", "ms"}, {"ingest_tail_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"ingest_records_per_s", "1/s"},
	{"labels_per_query", "calls/query"},
	{"oracle_calls_per_query", "calls/query"},
	{"agg_err_ratio", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's per-layer metrics.
var perLayer = []metricDef{
	{"dataset.generate_s", "s"},
	{"embed.pretrained_s", "s"}, {"embed.final_s", "s"},
	{"triplet.mine_s", "s"}, {"triplet.train_s", "s"}, {"triplet.step_us", "us"},
	{"cluster.fpf_s", "s"}, {"cluster.table_s", "s"},
	{"cluster.crack_ms", "ms"}, {"cluster.reps_added", "reps/query"},
	{"snapshot.load_s", "s"}, {"snapshot.bytes_per_record", "B/record"},
	{"shard.propagate_ms", "ms"}, {"shard.limit_order_ms", "ms"},
	{"aggregation.estimate_self_ms", "ms"}, {"aggregation.samples", "calls/query"},
	{"supg.select_self_ms", "ms"}, {"supg.samples", "calls/query"},
	{"limitq.scan_self_ms", "ms"}, {"limitq.examined_per_found", "ratio"},
	{"labeler.label_ms", "ms"}, {"labeler.oracle_calls", "calls/query"}, {"labeler.store_hit_ratio", "ratio"},
	{"ingest.wal_append_ms", "ms"}, {"ingest.wal_bytes_per_byte", "ratio"}, {"ingest.apply_ms", "ms"},
	{"tastiserve.wait_ms.aggregate", "ms"}, {"tastiserve.wait_ms.select", "ms"},
	{"tastiserve.wait_ms.limit", "ms"}, {"tastiserve.wait_ms.ingest", "ms"},
}

// routeStats is one route's client-side latency over the phase that
// measures it.
type routeStats struct {
	route  string
	phase  int
	n      int       // successful requests
	ms     []float64 // their latencies
	p50    float64
	tailP  int // the workload's fixed tail percentile for the route
	tail   float64
	warned bool // fewer samples than the tail percentile needs
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measuringPhase returns the index of the phase whose requests give route
// its end-to-end metrics.
func (w *workload) measuringPhase(route string) int {
	for i, ph := range w.phases {
		if slices.Contains(ph.measures, route) {
			return i
		}
	}
	return -1
}

// window returns the index of the timed phase.
func (w *workload) window() int {
	for i, ph := range w.phases {
		if ph.timed {
			return i
		}
	}
	return -1
}

func latencyStats(d *runData) map[string]*routeStats {
	out := make(map[string]*routeStats)
	for _, route := range routes {
		rs := &routeStats{route: route, phase: d.w.measuringPhase(route), tailP: d.w.tail[route]}
		for _, ex := range d.exchanges {
			if ex.phase == rs.phase && ex.req.Route == route && ex.ok() {
				rs.ms = append(rs.ms, msOf(ex.latency))
			}
		}
		rs.n = len(rs.ms)
		rs.p50 = median(rs.ms)
		rs.tail = percentile(rs.ms, float64(rs.tailP))
		rs.warned = beyond(rs.n, rs.tailP) < minBeyond
		out[route] = rs
	}
	return out
}

// endToEndValues computes every end-to-end metric of a run.
func endToEndValues(d *runData, lat map[string]*routeStats) map[string]float64 {
	v := make(map[string]float64)
	setups := make([]float64, len(d.setups))
	for i, s := range d.setups {
		setups[i] = s.Seconds()
	}
	v["setup_s"] = median(setups)
	for prefix, route := range map[string]string{"agg": routeAggregate, "select": routeSelect, "limit": routeLimit, "ingest": routeIngest} {
		v[prefix+"_p50_ms"] = lat[route].p50
		v[prefix+"_tail_ms"] = lat[route].tail
	}

	win := d.w.window()
	var queries, labels float64
	for _, ex := range d.exchanges {
		if ex.phase == win && isQuery(ex.req.Route) && ex.ok() {
			queries++
			labels += float64(ex.resp.LabelCalls)
		}
	}
	v["queries_per_s"] = queries / d.phaseWall[win].Seconds()
	v["labels_per_query"] = labels / queries
	v["oracle_calls_per_query"] = d.windowMiss / queries

	ip := lat[routeIngest].phase
	v["ingest_records_per_s"] = float64(lat[routeIngest].n*batchRecords) / d.phaseWall[ip].Seconds()

	// The aggregate truth is the mean car count over every record the
	// server held when the aggregate phase began.
	ap := lat[routeAggregate].phase
	truth := d.truthMean("car", d.ackedBefore[ap])
	var errs []float64
	for _, ex := range d.exchanges {
		if ex.phase == ap && ex.req.Route == routeAggregate && ex.ok() {
			errs = append(errs, math.Abs(*ex.resp.Estimate-truth)/ex.req.Err)
		}
	}
	v["agg_err_ratio"] = mean(errs)
	v["peak_rss_mb"] = d.peakRSSMB
	return v
}

// truthMean is the mean count of class over the base corpus plus the
// first ingested acknowledged records.
func (d *runData) truthMean(class string, ingested int) float64 {
	var sum float64
	for _, a := range d.base.Truth {
		sum += float64(a.(tasti.VideoAnnotation).Count(class))
	}
	for _, a := range d.acked[:ingested] {
		sum += float64(a.(tasti.VideoAnnotation).Count(class))
	}
	return sum / float64(d.base.Len()+ingested)
}

// routeLayers lists, per route, the spans a replayed request of it records
// besides the request itself.
var routeLayers = map[string][]string{
	routeAggregate: {spanPropagate, spanEstimate, spanLabel},
	routeSelect:    {spanPropagate, spanSelect, spanLabel},
	routeLimit:     {spanPropagate, spanLimitOrder, spanScan, spanLabel, spanCrack},
	routeIngest:    {spanWALAppend, spanApply},
}

// reconcileTolerance is the share of a route's end-to-end p50 the
// unattributed remainder may take.
const reconcileTolerance = 0.10

// reconciliation splits one route's end-to-end p50 into the medians of its
// traced self times, the wait outside the in-process call path, and the
// unattributed remainder.
type reconciliation struct {
	route        string
	n            int
	e2eP50       float64
	self         map[string]float64 // median self ms per layer
	selfSum      float64
	wait         float64 // e2e p50 minus the median traced request wall
	unattributed float64 // median request wall minus the sum of self medians
}

func (r reconciliation) ok() bool {
	return math.Abs(r.unattributed) <= reconcileTolerance*r.e2eP50
}

func reconcile(d *runData, td *traceData, lat map[string]*routeStats) []reconciliation {
	var out []reconciliation
	for _, route := range routes {
		rs := lat[route]
		var walls []float64
		selfs := make(map[string][]float64)
		for _, r := range td.reps {
			if r.ex.phase != rs.phase || r.ex.req.Route != route {
				continue
			}
			walls = append(walls, msOf(r.wall))
			for _, l := range routeLayers[route] {
				selfs[l] = append(selfs[l], msOf(r.self[l]))
			}
		}
		rc := reconciliation{route: route, n: len(walls), e2eP50: rs.p50, self: make(map[string]float64)}
		for _, l := range routeLayers[route] {
			rc.self[l] = median(selfs[l])
			rc.selfSum += rc.self[l]
		}
		wall := median(walls)
		rc.wait = rs.p50 - wall
		rc.unattributed = wall - rc.selfSum
		out = append(out, rc)
	}
	return out
}

// perLayerValues computes every per-layer metric of a traced run.
func perLayerValues(td *traceData, rcs []reconciliation) (map[string]float64, error) {
	v := make(map[string]float64)
	for metric, span := range map[string]string{
		"dataset.generate_s": spanGenerate, "embed.pretrained_s": spanPretrained, "embed.final_s": spanFinal,
		"triplet.mine_s": spanMine, "triplet.train_s": spanTrain, "cluster.fpf_s": spanFPF,
		"cluster.table_s": spanTable, "snapshot.load_s": spanSnapshotLoad,
	} {
		v[metric] = td.build[span].Seconds()
	}
	v["triplet.step_us"] = float64(td.build[spanTrain].Microseconds()) / float64(td.steps)

	// over collects val over the replayed requests that keep accepts.
	over := func(keep func(*replayed) bool, val func(*replayed) float64) []float64 {
		var xs []float64
		for _, r := range td.reps {
			if keep(r) {
				xs = append(xs, val(r))
			}
		}
		return xs
	}
	on := func(route string) func(*replayed) bool {
		return func(r *replayed) bool { return r.ex.req.Route == route }
	}
	queries := func(r *replayed) bool { return isQuery(r.ex.req.Route) }
	cracking := func(r *replayed) bool { return r.ex.req.Route == routeLimit && r.ex.req.Crack }
	self := func(span string) func(*replayed) float64 {
		return func(r *replayed) float64 { return msOf(r.self[span]) }
	}
	labels := func(r *replayed) float64 { return float64(r.resp.LabelCalls) }

	// Most cracks add no representative and cost microseconds; the mean
	// keeps the ones that rescan the table in view.
	v["cluster.crack_ms"] = mean(over(cracking, self(spanCrack)))
	v["cluster.reps_added"] = mean(over(cracking, func(r *replayed) float64 { return float64(r.repsAdded) }))
	v["snapshot.bytes_per_record"] = float64(td.snapshotBytes) / float64(td.snapshotRecords)
	v["shard.propagate_ms"] = median(over(queries, self(spanPropagate)))
	v["shard.limit_order_ms"] = median(over(on(routeLimit), self(spanLimitOrder)))
	v["aggregation.estimate_self_ms"] = median(over(on(routeAggregate), self(spanEstimate)))
	v["aggregation.samples"] = mean(over(on(routeAggregate), labels))
	v["supg.select_self_ms"] = median(over(on(routeSelect), self(spanSelect)))
	v["supg.samples"] = mean(over(on(routeSelect), labels))
	v["limitq.scan_self_ms"] = median(over(on(routeLimit), self(spanScan)))
	found := over(on(routeLimit), func(r *replayed) float64 { return float64(len(r.resp.Found)) })
	v["limitq.examined_per_found"] = mean(over(on(routeLimit), labels)) / mean(found)
	v["labeler.label_ms"] = median(over(queries, self(spanLabel)))
	var lookups, oracle, bodyBytes float64
	for _, r := range td.reps {
		lookups += float64(r.lookups)
		oracle += float64(r.oracle)
		if r.ex.req.Route == routeIngest {
			bodyBytes += float64(r.ex.bodyLen)
		}
	}
	v["labeler.oracle_calls"] = oracle / float64(len(over(queries, labels)))
	v["labeler.store_hit_ratio"] = (lookups - oracle) / lookups
	v["ingest.wal_append_ms"] = median(over(on(routeIngest), self(spanWALAppend)))
	v["ingest.wal_bytes_per_byte"] = float64(td.walBytes) / bodyBytes
	v["ingest.apply_ms"] = median(over(on(routeIngest), self(spanApply)))
	for _, rc := range rcs {
		v["tastiserve.wait_ms."+rc.route] = rc.wait
	}
	for _, m := range perLayer {
		if x, ok := v[m.name]; !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("per-layer metric %s has no value (%v): its layer did no work", m.name, x)
		}
	}
	return v, nil
}
