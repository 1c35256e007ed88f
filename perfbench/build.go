package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/labeler"
	"repro/internal/parallel"
	"repro/internal/triplet"
	"repro/internal/vecmath"
	"repro/internal/xrand"
	"repro/tasti"
)

// Build-layer span names.
const (
	spanGenerate     = "dataset.generate"
	spanPretrained   = "embed.pretrained"
	spanMine         = "triplet.mine"
	spanTrainLabels  = "build.label_train"
	spanTrain        = "triplet.train"
	spanFinal        = "embed.final"
	spanFPF          = "cluster.fpf"
	spanRepLabels    = "build.label_reps"
	spanTable        = "cluster.table"
	spanSnapshotLoad = "snapshot.load"
)

// buildConfig is the index configuration tastiserve builds with.
func buildConfig() tasti.Config {
	cfg := tasti.DefaultConfig(trainBudget, numReps, tasti.VideoBucketKey(0.5), serverSeed)
	cfg.Parallelism = parallelism
	cfg.Retry = serverRetryPolicy()
	return cfg
}

// serverRetryPolicy is tastiserve's labeler retry policy at its default
// -retries 3.
func serverRetryPolicy() tasti.RetryPolicy {
	pol := tasti.DefaultRetryPolicy(serverSeed)
	pol.MaxAttempts = 3
	return pol
}

// tracedBuild performs core.Build's phases one public call at a time, in
// core.Build's order, timing each as a span under parent. It supports the
// configuration buildConfig returns (trained, FPF mining and clustering,
// exact table); compareIndexes proves the result equals core.Build's.
// It returns the index and the triplet optimizer step count.
func tracedBuild(rec *recorder, parent int, cfg core.Config, ds *dataset.Dataset, lab labeler.Labeler) (*core.Index, int, error) {
	if !cfg.DoTrain || !cfg.FPFMining || !cfg.FPFCluster || cfg.ApproxTable || cfg.Quantize || cfg.AllowDegraded {
		return nil, 0, errors.New("tracedBuild supports the default trained configuration only")
	}
	p := cfg.Parallelism
	var base labeler.Labeler = lab
	if cfg.Retry.Enabled() {
		base = labeler.NewRetry(base, cfg.Retry)
	}
	cached := labeler.NewCached(labeler.NewCounting(base))

	var preEmb vecmath.Matrix
	pre := embed.NewPretrained(ds.FeatureDim(), cfg.EmbedDim, cfg.Seed)
	rec.time(spanPretrained, parent, func() { preEmb = embed.AllPar(pre, ds, p) })

	var trainIDs []int
	rec.time(spanMine, parent, func() {
		trainIDs = triplet.MineFPFPar(xrand.Split(cfg.Seed, "mining"), preEmb, cfg.TrainingBudget, p)
	})
	anns := make([]dataset.Annotation, len(trainIDs))
	var err error
	rec.time(spanTrainLabels, parent, func() {
		for i, id := range trainIDs {
			if anns[i], err = cached.Label(id); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("labeling training records: %w", err)
	}

	tcfg := cfg.Train
	if tcfg.Steps == 0 {
		tcfg = triplet.DefaultConfig(cfg.EmbedDim, cfg.Seed)
	}
	tcfg.EmbedDim = cfg.EmbedDim
	var trained *embed.Trained
	rec.time(spanTrain, parent, func() { trained, err = triplet.Train(tcfg, ds, trainIDs, anns, cfg.BucketKey) })
	if err != nil {
		return nil, 0, fmt.Errorf("triplet training: %w", err)
	}

	var embeddings vecmath.Matrix
	rec.time(spanFinal, parent, func() { embeddings = embed.AllPar(trained, ds, p) })

	// core.Build retains the FPF distance matrix and builds the table from
	// it when the matrix fits its memory budget, and rescans otherwise.
	var reps []int
	var repDists vecmath.Matrix
	cached2 := cluster.DistCacheFitsPlane(ds.Len(), cfg.NumReps, cfg.EmbedDim, false)
	rec.time(spanFPF, parent, func() {
		r := xrand.Split(cfg.Seed, "reps")
		if cached2 {
			reps, repDists = cluster.FPFMixedParDists(r, embeddings, cfg.NumReps, cfg.RandomRepFraction, p)
		} else {
			reps = cluster.FPFMixedPar(r, embeddings, cfg.NumReps, cfg.RandomRepFraction, p)
		}
	})

	repAnns := make([]dataset.Annotation, len(reps))
	repErrs := make([]error, len(reps))
	rec.time(spanRepLabels, parent, func() {
		parallel.For(p, len(reps), func(i int) { repAnns[i], repErrs[i] = cached.Label(reps[i]) })
	})
	annotations := make(map[int]dataset.Annotation, len(reps))
	for i, id := range reps {
		if repErrs[i] != nil {
			return nil, 0, fmt.Errorf("labeling representative %d: %w", id, repErrs[i])
		}
		annotations[id] = repAnns[i]
	}

	k := min(cfg.K, len(reps))
	var table *cluster.Table
	rec.time(spanTable, parent, func() {
		if cached2 {
			table = cluster.BuildTableFromDists(repDists, reps, k, p)
		} else {
			table = cluster.BuildTablePar(embeddings, reps, k, p)
		}
	})

	ix := &core.Index{Embedder: trained, Embeddings: embeddings, Table: table, Annotations: annotations}
	ix.SetParallelism(p)
	return ix, tcfg.Steps, nil
}

// compareIndexes reports the first difference between two indexes in the
// representatives, the min-k table, the representatives' annotations or
// the embeddings. Distances compare bit for bit.
func compareIndexes(got, want *core.Index) error {
	if !reflect.DeepEqual(got.Table.Reps, want.Table.Reps) {
		return errors.New("representatives differ")
	}
	if got.Table.K != want.Table.K || len(got.Table.Neighbors) != len(want.Table.Neighbors) {
		return errors.New("min-k table shape differs")
	}
	for i, ns := range got.Table.Neighbors {
		w := want.Table.Neighbors[i]
		if len(ns) != len(w) {
			return fmt.Errorf("record %d: %d neighbors, want %d", i, len(ns), len(w))
		}
		for j := range ns {
			if ns[j].Rep != w[j].Rep || math.Float64bits(ns[j].Dist) != math.Float64bits(w[j].Dist) {
				return fmt.Errorf("record %d neighbor %d: %v, want %v", i, j, ns[j], w[j])
			}
		}
	}
	if !reflect.DeepEqual(got.Annotations, want.Annotations) {
		return errors.New("representative annotations differ")
	}
	a, b := got.Embeddings.Data(), want.Embeddings.Data()
	if len(a) != len(b) {
		return errors.New("embedding shape differs")
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("embedding element %d differs", i)
		}
	}
	return nil
}
