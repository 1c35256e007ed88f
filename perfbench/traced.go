package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/tasti"
)

// traceData is what the traced in-process replay measured.
type traceData struct {
	build         map[string]time.Duration // wall time of each build-layer call
	steps         int                      // triplet optimizer steps
	snapshotBytes int64
	// snapshotRecords is the record count of the loaded snapshot.
	snapshotRecords int
	reps            []*replayed
	walBytes        int64 // bytes the replayed ingests appended to the WAL
	// buildEqual and answersEqual hold the replay-equivalence verdicts
	// (nil when equal); answersChecked counts the compared replies.
	buildEqual     error
	answersEqual   error
	answersChecked int
}

// traceRun rebuilds the server's index one public call at a time and
// replays the run's request sequence in-process, timing every call.
//
// query_mix serves the index it builds: the decomposed build is compared
// with tasti.Build on the same inputs, and every replayed answer with the
// HTTP reply to the same request. ingest_crack boots from a snapshot: the
// decomposed build times what that snapshot cost to make, and the replay
// loads the very snapshot file the server loaded.
func traceRun(ctx context.Context, d *runData) (*traceData, error) {
	w := d.w
	td := &traceData{build: make(map[string]time.Duration)}
	rec := newRecorder()
	root := rec.begin("build", -1)
	var ds *tasti.Dataset
	var err error
	rec.time(spanGenerate, root, func() { ds, err = tasti.GenerateDataset(corpus, w.records, serverSeed) })
	if err != nil {
		return nil, err
	}
	cfg := buildConfig()
	built, steps, err := tracedBuild(rec, root, cfg, ds, tasti.NewOracle(ds, "target", tasti.MaskRCNNCost))
	if err != nil {
		return nil, err
	}
	td.steps = steps
	rec.end(root)
	for name, dt := range rec.selfByName() {
		td.build[name] = dt
	}

	var ix *tasti.ShardedIndex
	if w.fromSnapshot {
		lrec := newRecorder()
		if ix, td.snapshotBytes, err = snapshotLoad(lrec, -1, d.snapshot); err != nil {
			return nil, err
		}
		td.build[spanSnapshotLoad] = lrec.selfByName()[spanSnapshotLoad]
		td.snapshotRecords = ix.NumRecords()
	} else {
		want, err := tasti.Build(cfg, ds, tasti.NewOracle(ds, "target", tasti.MaskRCNNCost))
		if err != nil {
			return nil, err
		}
		td.buildEqual = compareIndexes(built, want)
		if ix, err = tasti.SplitIndex(built, w.shards); err != nil {
			return nil, err
		}
		ix.SetParallelism(parallelism)
		// The server does no snapshot work here; time loading this index's
		// snapshot so the layer has a value on every workload.
		path, err := saveSnapshot(ix, d.dir, "trace.snap")
		if err != nil {
			return nil, err
		}
		lrec := newRecorder()
		if _, td.snapshotBytes, err = snapshotLoad(lrec, -1, path); err != nil {
			return nil, err
		}
		td.build[spanSnapshotLoad] = lrec.selfByName()[spanSnapshotLoad]
		td.snapshotRecords = ix.NumRecords()
	}

	// Collect the build's garbage now, not in the middle of a replayed
	// request.
	runtime.GC()
	rp, err := newReplayer(ds, ix, filepath.Join(d.dir, "trace-wal"), d.ic)
	if err != nil {
		return nil, err
	}
	walStart, err := rp.wal.Stat()
	if err != nil {
		return nil, err
	}
	for i := range d.exchanges {
		ex := &d.exchanges[i]
		if !ex.ok() {
			continue
		}
		r, err := rp.do(ctx, ex)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", routePath(ex.req.Route), err)
		}
		td.reps = append(td.reps, r)
	}
	walEnd, err := rp.wal.Stat()
	if err != nil {
		return nil, err
	}
	td.walBytes = walEnd.Bytes - walStart.Bytes
	if err := rp.close(); err != nil {
		return nil, err
	}

	// A read beside ingest in one phase races the asynchronous apply, so
	// its answer depends on timing; every other reply must match.
	ingests := make(map[int]bool)
	for _, ex := range d.exchanges {
		if ex.req.Route == routeIngest {
			ingests[ex.phase] = true
		}
	}
	for _, r := range td.reps {
		if isQuery(r.ex.req.Route) && ingests[r.ex.phase] {
			continue
		}
		td.answersChecked++
		if td.answersEqual == nil && !reflect.DeepEqual(r.resp, r.ex.resp) {
			td.answersEqual = fmt.Errorf("%s %+v: replay answered %s", routePath(r.ex.req.Route), r.ex.req, r.answerJSON)
		}
	}
	return td, nil
}
