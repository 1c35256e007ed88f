package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/tasti"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	bin     string // tastiserve binary
	work    string // scratch directory inside the checkout
	dir     string // this run's own directory under work, removed at exit
	seed    int64
	seconds int
	trace   bool
	boots   int // server boots timed for setup_s
}

// runData is everything one run observed over HTTP.
type runData struct {
	w         *workload
	base      *tasti.Dataset // the server's base corpus, regenerated
	ic        ingestCorpus
	dir       string // this run's scratch directory
	snapshot  string // ingest_crack's prebuilt base snapshot
	setups    []time.Duration
	exchanges []exchange
	phaseWall []time.Duration
	// ackedBefore[i] counts the records acknowledged before phase i began.
	ackedBefore []int
	acked       []tasti.Annotation // every acknowledged ingested record, by ID
	windowMiss  float64            // tasti_labelstore_misses_total gained over the window
	// windowSteal is the share of CPU time the hypervisor took from this
	// machine during the window; a high value explains a slow run.
	windowSteal float64
	peakRSSMB   float64
	server      serverIdentity
}

type serverIdentity struct {
	gomaxprocs int
	goVersion  string
	kernel     string
}

// serverArgs are tastiserve's flags for w, with its WAL under dir. Health
// collection and label flushing are off so no background work takes the
// index lock during a measurement.
func serverArgs(w *workload, dir, snapshot string) []string {
	args := []string{
		"-dataset", corpus,
		"-size", strconv.Itoa(w.records),
		"-seed", strconv.Itoa(serverSeed),
		"-parallelism", strconv.Itoa(parallelism),
		"-shards", strconv.Itoa(w.shards),
		"-train", strconv.Itoa(trainBudget),
		"-reps", strconv.Itoa(numReps),
		"-trace-sample", "0",
		"-health-interval", "0",
		"-label-flush", "0",
	}
	if dir != "" {
		args = append(args, "-wal-dir", filepath.Join(dir, "wal"))
	}
	if snapshot != "" {
		args = append(args, "-snapshot", snapshot)
	}
	return args
}

// execute boots the server cfg.boots times, timing each boot, drives the
// workload's phases against the last boot, and checks every reply.
func execute(ctx context.Context, cfg runConfig, w *workload) (*runData, error) {
	d := &runData{w: w, dir: cfg.dir}
	var err error
	if d.base, err = tasti.GenerateDataset(corpus, w.records, serverSeed); err != nil {
		return nil, err
	}
	ids, err := tasti.GenerateDataset(corpus, w.ingestSize, ingestSeed(cfg.seed))
	if err != nil {
		return nil, err
	}
	if d.ic, err = newIngestCorpus(ids); err != nil {
		return nil, err
	}
	if w.fromSnapshot {
		if d.snapshot, err = ensureSnapshot(ctx, cfg, w); err != nil {
			return nil, err
		}
	}

	d.phaseWall = make([]time.Duration, len(w.phases))
	origin := time.Now()
	var srv *serverProc
	for i := 0; i < cfg.boots; i++ {
		// Dirty pages left by earlier work (a previous run's WAL, the
		// cached snapshot) are written back now, not during a timed boot.
		syscall.Sync()
		dir := filepath.Join(d.dir, fmt.Sprintf("boot%d", i))
		if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
			return nil, err
		}
		snap := ""
		if w.fromSnapshot {
			// Each boot gets its own name for the snapshot. A hard link
			// writes no data, so no writeback of a copy lands in a later
			// measurement; the server replaces its snapshot by renaming a
			// new file over it, which leaves the cached file intact.
			snap = filepath.Join(dir, "index.snap")
			if err := linkOrCopy(d.snapshot, snap); err != nil {
				return nil, err
			}
		}
		s, setup, err := launch(ctx, cfg.bin, serverArgs(w, dir, snap), filepath.Join(dir, "server.log"))
		if err != nil {
			return nil, err
		}
		d.setups = append(d.setups, setup)
		if i < cfg.boots-1 {
			err := d.probeEarlyBoot(ctx, s, i, cfg.seed, origin)
			s.stop()
			if err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	defer srv.stop()

	text, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	d.server.goVersion = promLabel(text, "tasti_build_info", "go")
	d.server.kernel = promLabel(text, "tasti_vecmath_kernel", "kernel")
	last := cfg.boots - 1
	dur := time.Duration(cfg.seconds) * time.Second
	acked := 0
	var missBefore float64
	var cpuBefore []float64
	for i, ph := range w.phases {
		if ph.waitApplied {
			if err := srv.waitRecords(ctx, w.records+acked); err != nil {
				return nil, fmt.Errorf("phase %s: %w", ph.name, err)
			}
		}
		d.ackedBefore = append(d.ackedBefore, acked)
		syscall.Sync() // no writeback of earlier phases during this one
		if i == w.window() {
			text, err := srv.scrape(ctx)
			if err != nil {
				return nil, err
			}
			missBefore = promValue(text, "tasti_labelstore_misses_total")
			if cpuBefore, err = readCPUStat(); err != nil {
				return nil, err
			}
		}
		exs, wall := runPhase(ctx, srv.url, i, ph, ph.clients(cfg.seed), dur, origin, d.ic)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j := range exs {
			exs[j].boot = last
			if exs[j].req.Route == routeIngest && exs[j].ok() {
				acked += batchRecords
			}
		}
		d.exchanges = append(d.exchanges, exs...)
		d.phaseWall[i] += wall
		if i == w.window() {
			text, err := srv.scrape(ctx)
			if err != nil {
				return nil, err
			}
			d.windowMiss = promValue(text, "tasti_labelstore_misses_total") - missBefore
			cpuAfter, err := readCPUStat()
			if err != nil {
				return nil, err
			}
			d.windowSteal = stealShare(cpuBefore, cpuAfter)
		}
	}
	if d.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if d.server.gomaxprocs, err = srv.gomaxprocs(); err != nil {
		return nil, err
	}
	// Each boot's server starts from the same corpus, so each boot's
	// exchanges are checked on their own; the last boot's acknowledged
	// records are the ones the rest of the run sees.
	for start := 0; start < len(d.exchanges); {
		end := start
		for end < len(d.exchanges) && d.exchanges[end].boot == d.exchanges[start].boot {
			end++
		}
		d.acked = checkExchanges(d.exchanges[start:end], d.base, d.ic)
		start = end
	}
	return d, nil
}

// probeEarlyBoot drives the workload's everyBoot phases against a boot
// before the last one, just after it became ready.
func (d *runData) probeEarlyBoot(ctx context.Context, srv *serverProc, boot int, seed int64, origin time.Time) error {
	for i, ph := range d.w.phases {
		if !ph.everyBoot {
			continue
		}
		syscall.Sync()
		exs, wall := runPhase(ctx, srv.url, i, ph, ph.clients(seed), 0, origin, d.ic)
		if err := ctx.Err(); err != nil {
			return err
		}
		for j := range exs {
			exs[j].boot = boot
		}
		d.exchanges = append(d.exchanges, exs...)
		d.phaseWall[i] += wall
	}
	return nil
}

// ensureSnapshot returns the path of w's base snapshot, building it with
// an untimed tastiserve boot the first time. The file is cached in the
// scratch directory under the binary's digest, so a rebuilt server
// rebuilds it.
func ensureSnapshot(ctx context.Context, cfg runConfig, w *workload) (string, error) {
	digest, err := fileDigest(cfg.bin)
	if err != nil {
		return "", err
	}
	cache := filepath.Join(cfg.work, "cache")
	path := filepath.Join(cache, fmt.Sprintf("%s-%d-%d-%s.snap", corpus, w.records, w.shards, digest[:16]))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(cache, "build-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	snap := filepath.Join(tmp, "index.snap")
	s, _, err := launch(ctx, cfg.bin, serverArgs(w, "", snap), filepath.Join(tmp, "server.log"))
	if err != nil {
		return "", fmt.Errorf("building the base snapshot: %w", err)
	}
	s.stop()
	if err := os.Rename(snap, path); err != nil {
		return "", fmt.Errorf("building the base snapshot: %w", err)
	}
	return path, nil
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// linkOrCopy hard-links src to dst, copying it where the file system
// refuses the link.
func linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	return copyFile(src, dst)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// readCPUStat returns the machine-wide CPU time counters of /proc/stat
// (user, nice, system, idle, iowait, irq, softirq, steal, ...).
func readCPUStat() ([]float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	out := make([]float64, len(fields)-1)
	for i, f := range fields[1:] {
		if out[i], err = strconv.ParseFloat(f, 64); err != nil {
			return nil, fmt.Errorf("parsing /proc/stat: %w", err)
		}
	}
	return out, nil
}

// stealShare is the steal time's share of all CPU time between two
// readCPUStat readings.
func stealShare(before, after []float64) float64 {
	var total float64
	for i := range after[:8] {
		total += after[i] - before[i]
	}
	if total <= 0 {
		return 0
	}
	return (after[7] - before[7]) / total
}
