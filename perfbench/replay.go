package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/tasti"
)

// Query-layer span names. Each times one public call the tastiserve
// handlers make, from outside.
const (
	spanRequest    = "request"
	spanPropagate  = "shard.propagate"   // ShardedIndex.Propagate / PropagateNearest
	spanLimitOrder = "shard.limit_order" // ShardedIndex.LimitOrder
	spanEstimate   = "aggregation.estimate"
	spanSelect     = "supg.select"
	spanScan       = "limitq.scan"
	spanLabel      = "labeler.label" // Labeler.Label through LabelStore.Bind
	spanCrack      = "cluster.crack" // ShardedIndex.CrackAll
	spanWALAppend  = "ingest.wal_append"
	spanApply      = "ingest.apply" // ShardedIndex.AppendRecords
)

// replayer re-executes a recorded request sequence in-process, calling the
// same public functions as tastiserve's handlers and ingest pipeline, in
// the same order and with the same arguments, on an index equal to the
// server's.
type replayer struct {
	ds     *tasti.Dataset // grows with every applied ingest batch
	ix     *tasti.ShardedIndex
	target tasti.Labeler // retry(breaker(oracle)), as tastiserve's serve path
	oracle *countingLabeler
	labels *tasti.LabelStore
	budget *tasti.BudgetManager
	wal    *tasti.WAL
	drift  *tasti.DriftDetector
	ic     ingestCorpus
}

// replayed is one request's in-process re-execution.
type replayed struct {
	ex         *exchange
	wall       time.Duration
	self       map[string]time.Duration
	resp       response
	lookups    int64 // Label calls through the store
	oracle     int64 // target-labeler calls the store could not answer
	repsAdded  int
	answerJSON []byte
}

func newReplayer(ds *tasti.Dataset, ix *tasti.ShardedIndex, walDir string, ic ingestCorpus) (*replayer, error) {
	oracle := &countingLabeler{inner: tasti.NewOracle(ds, "target", tasti.MaskRCNNCost)}
	target := tasti.Labeler(tasti.NewRetryLabeler(tasti.NewBreakerLabeler(oracle, tasti.BreakerPolicy{}), serverRetryPolicy()))
	wal, err := tasti.OpenWAL(walDir, ix.NumRecords(), tasti.WALOptions{})
	if err != nil {
		return nil, err
	}
	drift := tasti.NewDriftDetector(256, 1.5, nil) // tastiserve's defaults
	drift.Reset(ix.MeanNearestDistance())
	return &replayer{
		ds: ds, ix: ix, target: target, oracle: oracle,
		labels: tasti.NewLabelStore(tasti.LabelStoreOptions{}),
		budget: tasti.NewBudgetManager(tasti.BudgetConfig{}),
		wal:    wal, drift: drift, ic: ic,
	}, nil
}

func (rp *replayer) close() error { return rp.wal.Close() }

// countingLabeler counts the calls that reach the target labeler.
type countingLabeler struct {
	inner tasti.Labeler
	calls atomic.Int64
}

func (c *countingLabeler) Label(id int) (tasti.Annotation, error) {
	c.calls.Add(1)
	return c.inner.Label(id)
}
func (c *countingLabeler) Name() string          { return c.inner.Name() }
func (c *countingLabeler) Cost() tasti.CostModel { return c.inner.Cost() }

// timedLabeler times every Label call as a span under the query call that
// issued it.
type timedLabeler struct {
	inner  tasti.Labeler
	rec    *recorder
	parent int
	calls  atomic.Int64
}

func (t *timedLabeler) Label(id int) (tasti.Annotation, error) {
	t.calls.Add(1)
	i := t.rec.begin(spanLabel, t.parent)
	defer t.rec.end(i)
	return t.inner.Label(id)
}
func (t *timedLabeler) Name() string          { return t.inner.Name() }
func (t *timedLabeler) Cost() tasti.CostModel { return t.inner.Cost() }

// queryLabeler is tastiserve's per-request labeler chain: the label store
// bound to the serve chain with budget admission and a free lookup into the
// index's own annotations, bound to the request context.
func (rp *replayer) queryLabeler(ctx context.Context, rec *recorder) *timedLabeler {
	bound := rp.labels.Bind(rp.target, rp.budget, "", rp.ix.AnnotationOf)
	return &timedLabeler{inner: tasti.LabelerWithContext(ctx, bound), rec: rec}
}

// do re-executes one request.
func (rp *replayer) do(ctx context.Context, ex *exchange) (*replayed, error) {
	rec := newRecorder()
	root := rec.begin(spanRequest, -1)
	oracle0 := rp.oracle.calls.Load()
	out := &replayed{ex: ex}
	var answer map[string]interface{}
	var lab *timedLabeler
	var err error
	q := ex.req
	switch q.Route {
	case routeAggregate:
		score := tasti.CountScore(q.Class)
		var scores []float64
		rec.time(spanPropagate, root, func() { scores, err = rp.ix.Propagate(score) })
		if err != nil {
			return nil, err
		}
		lab = rp.queryLabeler(ctx, rec)
		lab.parent = rec.begin(spanEstimate, root)
		res, err := tasti.EstimateAggregate(tasti.AggregateOptions{
			ErrTarget: q.Err, Delta: 0.05, MinSamples: 100, Seed: serverSeed + 1,
		}, rp.ds.Len(), scores, score, lab)
		rec.end(lab.parent)
		if err != nil {
			return nil, err
		}
		answer = map[string]interface{}{
			"estimate": res.Estimate, "half_width": res.HalfWidth,
			"label_calls": res.LabelerCalls, "degraded": res.Degraded,
		}
	case routeSelect:
		pred := q.predicate()
		var scores []float64
		rec.time(spanPropagate, root, func() { scores, err = rp.ix.Propagate(tasti.MatchScore(pred)) })
		if err != nil {
			return nil, err
		}
		lab = rp.queryLabeler(ctx, rec)
		lab.parent = rec.begin(spanSelect, root)
		res, err := tasti.SelectWithRecall(tasti.SelectOptions{
			Budget: max(100, rp.ds.Len()/40), Target: q.Recall, Delta: 0.05, Seed: serverSeed + 2,
			Parallelism: parallelism,
		}, rp.ds.Len(), scores, pred, lab)
		rec.end(lab.parent)
		if err != nil {
			return nil, err
		}
		sample := res.Returned
		if len(sample) > 20 {
			sample = sample[:20]
		}
		answer = map[string]interface{}{
			"returned": len(res.Returned), "threshold": res.Threshold,
			"label_calls": res.OracleCalls, "sample_ids": sample, "degraded": res.Degraded,
		}
	case routeLimit:
		score, pred := tasti.CountScore(q.Class), q.predicate()
		var scores, dists []float64
		rec.time(spanPropagate, root, func() { scores, dists, err = rp.ix.PropagateNearest(score) })
		if err != nil {
			return nil, err
		}
		var order []int
		rec.time(spanLimitOrder, root, func() { order = rp.ix.LimitOrder(scores, dists) })
		lab = rp.queryLabeler(ctx, rec)
		lab.parent = rec.begin(spanScan, root)
		res, err := tasti.FindLimitScan(tasti.LimitOptions{}, q.K, order, pred, lab)
		rec.end(lab.parent)
		if err != nil {
			return nil, err
		}
		if q.Crack {
			before := rp.ix.RepCount()
			rec.time(spanCrack, root, func() { rp.ix.CrackAll(res.Labeled) })
			out.repsAdded = rp.ix.RepCount() - before
		}
		answer = map[string]interface{}{
			"found": res.Found, "label_calls": res.OracleCalls, "exhausted": res.Exhausted,
			"cracked": out.repsAdded, "degraded": res.Degraded,
		}
	case routeIngest:
		feats, anns := rp.ic.batch(q.Batch)
		b := tasti.IngestBatch{Base: rp.wal.NextID(), Features: feats, Anns: anns}
		rec.time(spanWALAppend, root, func() { err = rp.wal.Append(b) })
		if err != nil {
			return nil, err
		}
		// tastiserve's apply: extend the ground truth, append, observe drift.
		for i := range feats {
			rp.ds.Records = append(rp.ds.Records, tasti.Record{ID: b.Base + i, Features: slices.Clone(feats[i])})
			rp.ds.Truth = append(rp.ds.Truth, anns[i])
		}
		var ids []int
		rec.time(spanApply, root, func() { ids, err = rp.ix.AppendRecords(feats) })
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			rp.drift.Observe(rp.ix.NearestDistance(id))
		}
		answer = map[string]interface{}{"base": b.Base, "count": len(feats)}
	default:
		return nil, fmt.Errorf("unknown route %q", q.Route)
	}
	rec.end(root)
	out.wall = rec.duration(root)
	out.self = rec.selfByName()
	if lab != nil {
		out.lookups = lab.calls.Load()
	}
	out.oracle = rp.oracle.calls.Load() - oracle0
	// Round-trip through JSON exactly as tastiserve answers, so the
	// comparison with the HTTP reply is field for field.
	if out.answerJSON, err = json.Marshal(answer); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(out.answerJSON, &out.resp); err != nil {
		return nil, err
	}
	return out, nil
}

// snapshotLoad times loading a sharded snapshot file the way tastiserve
// does at boot, and returns the index and the file's size.
func snapshotLoad(rec *recorder, parent int, path string) (*tasti.ShardedIndex, int64, error) {
	var ix *tasti.ShardedIndex
	var err error
	rec.time(spanSnapshotLoad, parent, func() {
		err = tasti.ReadSnapshotFile(path, func(r io.Reader) error {
			var lerr error
			ix, lerr = tasti.LoadShardedIndex(r)
			return lerr
		})
	})
	if err != nil {
		return nil, 0, err
	}
	ix.SetParallelism(parallelism)
	st, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	return ix, st.Size(), nil
}

// saveSnapshot writes ix to dir/name atomically and returns the path.
func saveSnapshot(ix *tasti.ShardedIndex, dir, name string) (string, error) {
	path := filepath.Join(dir, name)
	return path, tasti.WriteFileAtomic(path, ix.Save)
}
