package core

import (
	"errors"

	"repro/internal/cluster"
	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// ErrNoEmbedder is returned by AppendRecords when the index has no embedding
// model — e.g. an index restored with Load, which persists embeddings but
// not the model.
var ErrNoEmbedder = errors.New("core: index has no embedder; rebuild or keep the original in memory")

// AppendRecords ingests newly arrived unstructured records (for example new
// frames of a live video stream): each record is embedded and its min-k
// neighbor list over the existing representatives is computed. The records
// receive consecutive IDs starting at the current NumRecords, which the
// caller must mirror in its dataset/labeler so the IDs stay aligned.
//
// Appended records are immediately covered by Propagate and friends, and
// can later be cracked in as representatives like any other record. Like
// Crack, AppendRecords mutates the index and must be serialized against all
// other index use; the per-record embedding and neighbor scans themselves
// run across Config.Parallelism workers. The representatives are gathered
// into one contiguous block up front so every scan is a single batch-kernel
// sweep.
func (ix *Index) AppendRecords(features [][]float64) ([]int, error) {
	if ix.Embedder == nil {
		return nil, ErrNoEmbedder
	}
	if len(features) == 0 {
		return nil, nil
	}
	if len(ix.Table.Reps) == 0 {
		return nil, errors.New("core: appending records: no representatives")
	}
	k := ix.Table.K
	if len(ix.Table.Reps) < k {
		k = len(ix.Table.Reps)
	}
	reps := ix.Table.Reps
	repMat := vecmath.GatherRows(ix.Embeddings, reps)
	// Embed and scan in parallel into per-record slots, then append in
	// record order so IDs and table rows stay sequential.
	embs := vecmath.NewMatrix(len(features), ix.Embedder.Dim())
	nbrLists := make([][]cluster.Neighbor, len(features))
	parallel.ForChunks(ix.cfg.Parallelism, len(features), func(_ int, s parallel.Span) {
		var sc cluster.Scanner // per-chunk scratch
		for i := s.Lo; i < s.Hi; i++ {
			copy(embs.Row(i), ix.Embedder.Embed(features[i]))
			nbrLists[i] = sc.ScanInto(make([]cluster.Neighbor, 0, k), embs.Row(i), repMat, reps, k)
		}
	})
	ids := make([]int, len(features))
	for i := range features {
		ids[i] = ix.Embeddings.Rows()
		ix.Embeddings.AppendRow(embs.Row(i))
		ix.Table.Neighbors = append(ix.Table.Neighbors, nbrLists[i])
	}
	return ids, nil
}
