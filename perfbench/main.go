// Command perfbench is the repository benchmark. It launches the real
// tastiserve binary, drives it over loopback HTTP with a seeded closed-loop
// workload, checks every reply against ground truth it regenerates, and
// prints the end-to-end metrics. With --trace 1 it then replays the same
// request sequence in-process, calling the public functions the server's
// handlers and its index build call, in the same order, timing each call
// from outside, and prints per-layer self times.
//
// run.sh builds tastiserve and this driver from the checkout and runs it:
//
//	bash perfbench/run.sh --workload query_mix --seed 1 --seconds 20 --trace 0
//
// The report names every metric with its unit; its last line is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: query_mix or ingest_crack")
		seed    = flag.Int64("seed", 1, "workload seed: the request mix and the ingested records")
		seconds = flag.Int("seconds", 20, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 adds the traced in-process replay and reports per-layer metrics")
		bin     = flag.String("bin", ".bench_build/bin/tastiserve", "tastiserve binary")
		work    = flag.String("work", ".bench_build", "scratch directory")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupBoots is how many boots a run times for setup_s; the traced run
// boots once, as it reports no setup_s.
const setupBoots = 3

func run(name string, seed int64, seconds, trace int, bin, work string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds < 1 {
		return errors.New("--seconds must be positive")
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("tastiserve binary: %w", err)
	}
	cfg := runConfig{bin: bin, work: work, seed: seed, seconds: seconds, trace: trace == 1, boots: setupBoots}
	if cfg.trace {
		cfg.boots = 1
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	if cfg.dir, err = os.MkdirTemp(work, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	d, err := execute(ctx, cfg, w)
	if err != nil {
		return err
	}
	var td *traceData
	if cfg.trace {
		if td, err = traceRun(ctx, d); err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
	}
	rep, err := buildReport(cfg, d, td)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
