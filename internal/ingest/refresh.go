package ingest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// ErrRefreshInProgress is returned when a refresh is already running; the
// caller just waits for it rather than queueing another.
var ErrRefreshInProgress = errors.New("ingest: refresh already in progress")

// RefreshConfig wires a Refresher to the serving index it refreshes.
// Acquire/Release bracket the same serialization every index mutation uses
// (cmd/tastiserve's query semaphore); Swap publishes a replacement index at
// a request boundary (the server's atomic index pointer).
type RefreshConfig struct {
	// Index returns the live serving index. Called under Acquire.
	Index func() *shard.Index
	// Acquire blocks until the caller may read or mutate the index
	// exclusively; Release undoes it.
	Acquire func(ctx context.Context) error
	Release func()
	// Swap publishes the refreshed index. Called under Acquire.
	Swap func(*shard.Index)
	// Label produces the ground-truth annotation for a record — the target
	// labeler (oracle) lookup. Called OUTSIDE Acquire; must be safe to run
	// concurrently with queries. Record IDs passed are stable because IDs
	// are append-only.
	Label func(ctx context.Context, id int) (dataset.Annotation, error)
	// Drift, when non-nil, is reset to the refreshed index's baseline after
	// a successful swap.
	Drift *DriftDetector
	// Budget bounds how many appended records one refresh cracks in as new
	// representatives (<= 0: 32).
	Budget int
	// Since is the record count at index build: records with id >= Since
	// arrived by ingest and are refresh candidates until annotated.
	Since int
	// Telemetry receives the tasti_refresh_* metrics (nil disables).
	Telemetry *telemetry.Registry
}

// DefaultRefreshBudget bounds representative growth per refresh.
const DefaultRefreshBudget = 32

// RefreshStats reports one refresh.
type RefreshStats struct {
	// Cracked is the number of new representatives added.
	Cracked int
	// CatchUp is the number of records that arrived during the off-lock
	// phase and were re-appended to the refreshed clone before the swap.
	CatchUp int
	// Baseline is the refreshed index's mean nearest-representative
	// distance — the drift detector's new denominator.
	Baseline float64
	Elapsed  time.Duration
}

// Refresher rebuilds representative coverage online, without blocking
// queries:
//
//  1. Under the index lock: deep-Clone the live index and collect the
//     farthest un-annotated appended records (by nearest-representative
//     distance — the records the current representatives cover worst).
//  2. Off the lock: label each candidate and crack it into the clone.
//     Queries keep hitting the untouched live index the whole time.
//  3. Under the lock again: records that streamed in during step 2 are
//     copied (already-embedded) from the live index into the clone and
//     scanned against the clone's refreshed representatives; then the clone
//     is swapped in and the drift detector re-baselined.
//
// Queries therefore never observe a partial refresh: they see the old index
// until the swap, the new index after, and the swap itself happens at a
// request boundary under the same lock every query acquires.
type Refresher struct {
	cfg     RefreshConfig
	running atomic.Bool

	mRefreshes *telemetry.Counter
	mFailed    *telemetry.Counter
	mCracked   *telemetry.Counter
	gRunning   *telemetry.Gauge
	hSeconds   *telemetry.Histogram
}

// NewRefresher validates the wiring and builds a Refresher.
func NewRefresher(cfg RefreshConfig) (*Refresher, error) {
	if cfg.Index == nil || cfg.Acquire == nil || cfg.Release == nil || cfg.Swap == nil || cfg.Label == nil {
		return nil, errors.New("ingest: RefreshConfig requires Index, Acquire, Release, Swap, and Label")
	}
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultRefreshBudget
	}
	r := &Refresher{cfg: cfg}
	if reg := cfg.Telemetry; reg != nil {
		r.mRefreshes = reg.Counter("tasti_refresh_total")
		r.mFailed = reg.Counter("tasti_refresh_failed_total")
		r.mCracked = reg.Counter("tasti_refresh_cracked_total")
		r.gRunning = reg.Gauge("tasti_refresh_running")
		r.hSeconds = reg.Histogram("tasti_refresh_seconds", telemetry.DefLatencyBuckets)
	}
	return r, nil
}

// Running reports whether a refresh is in flight.
func (r *Refresher) Running() bool { return r.running.Load() }

// candidate is an appended record ranked by how badly the current
// representative set covers it.
type candidate struct {
	id   int
	dist float64
}

// Refresh runs one refresh cycle. Only one runs at a time; a second call
// returns ErrRefreshInProgress immediately.
func (r *Refresher) Refresh(ctx context.Context) (RefreshStats, error) {
	if !r.running.CompareAndSwap(false, true) {
		return RefreshStats{}, ErrRefreshInProgress
	}
	defer r.running.Store(false)
	r.gRunning.Set(1)
	defer r.gRunning.Set(0)
	start := time.Now()
	st, err := r.refresh(ctx)
	st.Elapsed = time.Since(start)
	if err != nil {
		r.mFailed.Inc()
		return st, err
	}
	r.mRefreshes.Inc()
	r.mCracked.Add(int64(st.Cracked))
	r.hSeconds.Observe(st.Elapsed.Seconds())
	return st, nil
}

func (r *Refresher) refresh(ctx context.Context) (RefreshStats, error) {
	var st RefreshStats

	// Phase 1 (under lock): clone and pick candidates.
	if err := r.cfg.Acquire(ctx); err != nil {
		return st, err
	}
	live := r.cfg.Index()
	clone := live.Clone()
	n0 := clone.NumRecords()
	var cands []candidate
	for id := r.cfg.Since; id < n0; id++ {
		if !clone.Annotated(id) {
			cands = append(cands, candidate{id: id, dist: clone.NearestDistance(id)})
		}
	}
	r.cfg.Release()

	// Worst-covered first; ties by ID for determinism.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist > cands[j].dist
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > r.cfg.Budget {
		cands = cands[:r.cfg.Budget]
	}

	// Phase 2 (off lock): label and crack the clone. Queries run untouched.
	for _, c := range cands {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		ann, err := r.cfg.Label(ctx, c.id)
		if err != nil {
			return st, fmt.Errorf("ingest: refresh labeling record %d: %w", c.id, err)
		}
		clone.Crack(c.id, ann)
		st.Cracked++
	}

	// Phase 3 (under lock): catch up on records appended meanwhile, then
	// swap. The catch-up rows keep their already-computed embeddings and are
	// scanned against the clone's refreshed representative set — exactly the
	// state cracking first and appending after would have produced.
	if err := r.cfg.Acquire(ctx); err != nil {
		return st, err
	}
	defer r.cfg.Release()
	live = r.cfg.Index()
	if n := live.NumRecords(); n > n0 {
		rows := make([][]float64, 0, n-n0)
		for id := n0; id < n; id++ {
			rows = append(rows, live.EmbeddingRow(id))
		}
		if _, err := clone.AppendEmbedded(rows); err != nil {
			return st, fmt.Errorf("ingest: refresh catch-up: %w", err)
		}
		st.CatchUp = n - n0
	}
	r.cfg.Swap(clone)
	st.Baseline = clone.MeanNearestDistance()
	if r.cfg.Drift != nil {
		r.cfg.Drift.Reset(st.Baseline)
	}
	return st, nil
}
