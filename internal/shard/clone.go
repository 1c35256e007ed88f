package shard

import (
	"fmt"
	"maps"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/vecmath"
)

// Clone returns a deep copy of the index: every shard's embedding matrix,
// neighbor rows, representative list, and annotation map are freshly
// allocated, so cracking or appending to the clone never disturbs the
// original (and vice versa). The embedding model is shared — it is immutable
// once serving starts — and telemetry wiring is NOT carried over; call
// SetTelemetry on whichever copy ends up serving. The drift-triggered online
// refresh builds on exactly this: clone under the query lock, re-crack the
// clone off the lock, swap it back in.
//
// Clone reads every shard's full state, so callers serialize it against
// mutation (Crack, AppendRecords, ReplaceShard) like any other whole-index
// read.
func (x *Index) Clone() *Index {
	c := &Index{
		shards: make([]atomic.Pointer[Shard], len(x.shards)),
		total:  x.total,
		par:    x.par,
		emb:    x.emb,
		Stats:  x.Stats,
	}
	for s := range x.shards {
		sh := x.shards[s].Load()
		data := append([]float64(nil), sh.Embeddings.Data()...)
		m, err := vecmath.MatrixFromFlat(data, sh.Embeddings.Rows(), sh.Embeddings.Dim())
		if err != nil {
			// A live shard's matrix always has a consistent shape.
			panic(fmt.Sprintf("shard: cloning shard %d: %v", s, err))
		}
		nbrs := make([][]cluster.Neighbor, len(sh.Table.Neighbors))
		for i := range nbrs {
			nbrs[i] = append([]cluster.Neighbor(nil), sh.Table.Neighbors[i]...)
		}
		c.shards[s].Store(&Shard{
			Lo:         sh.Lo,
			Hi:         sh.Hi,
			Embeddings: m,
			Table: &cluster.Table{
				K:         sh.Table.K,
				Reps:      append([]int(nil), sh.Table.Reps...),
				Neighbors: nbrs,
			},
			Annotations: maps.Clone(sh.Annotations),
		})
	}
	return c
}
