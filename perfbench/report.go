package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/tasti"
)

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's human-readable account plus its result line.
type report struct {
	cfg      runConfig
	d        *runData
	td       *traceData
	lat      map[string]*routeStats
	e2e      map[string]float64
	layer    map[string]float64
	rcs      []reconciliation
	failures []string
	result   result
}

func buildReport(cfg runConfig, d *runData, td *traceData) (*report, error) {
	r := &report{cfg: cfg, d: d, td: td, lat: latencyStats(d)}
	r.e2e = endToEndValues(d, r.lat)
	for _, ex := range d.exchanges {
		r.result.Attempted++
		if !ex.ok() {
			r.result.Failed++
			if len(r.failures) < 5 {
				r.failures = append(r.failures, ex.err.Error())
			}
		}
	}
	r.result.Correct = r.result.Failed == 0
	r.result.Metrics = make(map[string]metricValue)
	if td == nil {
		for _, m := range endToEnd {
			r.result.Metrics[m.name] = metricValue{r.e2e[m.name], m.unit}
		}
		return r, nil
	}
	r.rcs = reconcile(d, td, r.lat)
	var err error
	if r.layer, err = perLayerValues(td, r.rcs); err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		r.result.Metrics[m.name] = metricValue{r.layer[m.name], m.unit}
	}
	for _, rc := range r.rcs {
		r.result.Correct = r.result.Correct && rc.ok()
	}
	r.result.Correct = r.result.Correct && td.buildEqual == nil && td.answersEqual == nil
	return r, nil
}

func (r *report) print(out io.Writer) {
	w, d := r.d.w, r.d
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", w.name, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	fmt.Fprintf(out, "why: %s\n", w.why)
	r.printIdentity(out)

	fmt.Fprintln(out, "\nphases:")
	for i, ph := range w.phases {
		n := 0
		for _, ex := range d.exchanges {
			if ex.phase == i {
				n++
			}
		}
		boots := ""
		if ph.everyBoot && len(d.setups) > 1 {
			boots = fmt.Sprintf(" over %d boots", len(d.setups))
		}
		fmt.Fprintf(out, "  %-16s %5d requests in %.2f s%s, measures %v\n", ph.name, n, d.phaseWall[i].Seconds(), boots, ph.measures)
	}
	fmt.Fprintln(out, "\nroutes (client-side latency, successful requests of the measuring phase):")
	for _, route := range routes {
		rs := r.lat[route]
		note := ""
		if rs.warned {
			note = fmt.Sprintf("  [only %.1f samples beyond p%d, fewer than %d]", beyond(rs.n, rs.tailP), rs.tailP, minBeyond)
		}
		fmt.Fprintf(out, "  %-10s n=%-5d p50=%9.3f ms  tail=p%d %9.3f ms%s\n", route, rs.n, rs.p50, rs.tailP, rs.tail, note)
	}
	fmt.Fprintf(out, "\nchecks: %d requests attempted, %d failed\n", r.result.Attempted, r.result.Failed)
	for _, f := range r.failures {
		fmt.Fprintf(out, "  failure: %s\n", f)
	}

	title := "end-to-end metrics (tracing off):"
	if r.cfg.trace {
		title = "end-to-end metrics (tracing off; one boot, so setup_s is a single boot):"
	}
	fmt.Fprintln(out, "\n"+title)
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-30s %14.4f %s\n", m.name, r.e2e[m.name], m.unit)
	}
	if r.td == nil {
		return
	}
	fmt.Fprintln(out, "\nper-layer metrics (traced in-process replay):")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-30s %14.4f %s\n", m.name, r.layer[m.name], m.unit)
	}
	fmt.Fprintf(out, "\nreconciliation (medians in ms; |unattributed| must stay within %.0f%% of the end-to-end p50):\n", reconcileTolerance*100)
	for _, rc := range r.rcs {
		mark := "ok"
		if !rc.ok() {
			mark = "OVER TOLERANCE"
		}
		fmt.Fprintf(out, "  %-10s n=%-5d e2e p50 %9.3f = self %9.3f + wait %9.3f + unattributed %8.3f (%+.1f%%) %s\n",
			rc.route, rc.n, rc.e2eP50, rc.selfSum, rc.wait, rc.unattributed, 100*rc.unattributed/rc.e2eP50, mark)
		layers := make([]string, 0, len(rc.self))
		for _, l := range routeLayers[rc.route] {
			layers = append(layers, fmt.Sprintf("%s %.3f", l, rc.self[l]))
		}
		fmt.Fprintf(out, "             self: %s\n", strings.Join(layers, ", "))
	}
	fmt.Fprintln(out, "\nreplay equivalence:")
	if w.fromSnapshot {
		fmt.Fprintln(out, "  build: the server loads a snapshot; the replay loads the same file")
	} else {
		fmt.Fprintf(out, "  build (decomposed vs tasti.Build): %s\n", verdict(r.td.buildEqual))
	}
	fmt.Fprintf(out, "  answers (%d replies, all but reads beside ingest): %s\n", r.td.answersChecked, verdict(r.td.answersEqual))
}

func verdict(err error) string {
	if err == nil {
		return "equal"
	}
	return "DIFFERENT: " + err.Error()
}

// printIdentity records what the numbers were measured on.
func (r *report) printIdentity(out io.Writer) {
	root, _ := os.Getwd()
	fmt.Fprintf(out, "identity: num_cpu=%d gomaxprocs_driver=%d gomaxprocs_server=%d kernel_driver=%s kernel_server=%s go_driver=%s go_server=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), r.d.server.gomaxprocs, tasti.KernelName(), r.d.server.kernel,
		runtime.Version(), r.d.server.goVersion)
	fmt.Fprintf(out, "source: commit=%s tree_sha256=%s\n", gitCommit(root), treeDigest(root))
	fmt.Fprintf(out, "cpu_steal_window=%.1f%% (CPU time the hypervisor took during the timed window)\n", 100*r.d.windowSteal)
	for _, route := range routes {
		rs := r.lat[route]
		fmt.Fprintf(out, "request_count.%s=%d tail_percentile.%s=p%d (fixed for %d expected requests)\n",
			route, rs.n, route, rs.tailP, r.d.w.expected[route])
	}
}

// gitCommit reads HEAD from root/.git without running git; a checkout
// that is not a git repository reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// treeDigest hashes every Go source file and go.mod under root (skipping
// the scratch and git directories), so a run is tied to its source even
// in a checkout without git.
func treeDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries are skipped
		if err != nil {
			return nil
		}
		if de.IsDir() && (de.Name() == ".git" || de.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !de.IsDir() && (strings.HasSuffix(path, ".go") || de.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
