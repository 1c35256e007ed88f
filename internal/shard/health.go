package shard

import "sort"

// Health introspection: cheap shape statistics the index-health monitor
// publishes as gauges and /admin/status reports. All of these are reads and
// follow the usual serialization rule (the caller holds the query
// semaphore); none of them feed back into query execution.

// EmbeddingBytes sums the resident float64 embedding rows across every live
// shard: the plane every candidate-generation scan streams.
func (x *Index) EmbeddingBytes() int64 {
	var n int64
	for s := range x.shards {
		sh := x.shards[s].Load()
		n += 8 * int64(sh.Embeddings.Rows()) * int64(sh.Embeddings.Dim())
	}
	return n
}

// RecordSkew returns max/mean of per-shard record counts — 1.0 means
// perfectly balanced ranges, 2.0 means the fattest shard holds twice the
// mean and bounds the scatter's critical path accordingly. Contiguous-range
// splitting keeps this near 1, but streaming ingest appends only to the last
// shard, so skew grows between refreshes; the monitor makes that visible.
func (x *Index) RecordSkew() float64 {
	max, total := 0, 0
	for s := range x.shards {
		n := x.shards[s].Load().NumRecords()
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(len(x.shards)) / float64(total)
}

// RepSkew returns max/mean of per-shard representative counts. Shards agree
// on the representative set in steady state (skew 1.0); a rolling per-shard
// reload across table generations shows up here.
func (x *Index) RepSkew() float64 {
	max, total := 0, 0
	for s := range x.shards {
		n := len(x.shards[s].Load().Table.Reps)
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(len(x.shards)) / float64(total)
}

// RadiusQuantiles returns the requested quantiles (each in [0,1]) of the
// min-k table's nearest-representative distances across every record — the
// "radius" each record's proxy score travels. Rising radii mean the
// representative set is thinning relative to the corpus (drift, or ingest
// outpacing cracking) and propagated scores are extrapolating further.
// Quantiles use the nearest-rank method on the sorted distances.
func (x *Index) RadiusQuantiles(qs []float64) []float64 {
	dists := make([]float64, 0, x.total)
	for s := range x.shards {
		sh := x.shards[s].Load()
		for _, row := range sh.Table.Neighbors {
			dists = append(dists, row[0].Dist)
		}
	}
	out := make([]float64, len(qs))
	if len(dists) == 0 {
		return out
	}
	sort.Float64s(dists)
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		idx := int(q*float64(len(dists))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(dists) {
			idx = len(dists) - 1
		}
		out[i] = dists[idx]
	}
	return out
}
