// Package cluster implements the clustering side of the TASTI index:
// furthest-point-first (FPF) representative selection and the per-record
// min-k distance tables that score propagation reads.
//
// Embeddings arrive as a vecmath.Matrix — one contiguous backing array —
// and every sweep here runs the blocked one-to-many kernels
// (vecmath.SquaredL2Batch) over row ranges of it, which is where index
// construction spends its O(N·reps·D) distance budget.
//
// # Concurrency contract
//
// The package functions parallelize internally over internal/parallel and
// return results that are bitwise identical at every worker count: each
// record's distances are computed by the same kernel whatever chunk it lands
// in. The functions themselves are safe to call concurrently on distinct
// inputs, but a *Table is not internally synchronized: AddRepresentative
// mutates Reps and the Neighbors lists in place, so callers must not run it
// concurrently with reads of the same Table (Nearest, Validate, propagation)
// or with another AddRepresentative. core.Index.Crack inherits this contract
// — see cmd/tastiserve for the serialization a server needs.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// FPF selects k representatives from the embeddings with the
// furthest-point-first (Gonzalez, 1985) algorithm, starting from the record
// with the given index, using all CPUs. It returns representative indices in
// selection order and runs in O(N·k) distance computations. FPF
// 2-approximates the optimal maximum intra-cluster distance, the property
// the paper's analysis relies on.
func FPF(embeddings vecmath.Matrix, k, start int) []int {
	return FPFPar(embeddings, k, start, 0)
}

// FPFPar is FPF with an explicit parallelism level p (p <= 0 uses all CPUs).
// The selection is identical at every p: each iteration's distance sweep is
// an argmax reduced over a fixed chunk grid with ties broken toward the
// smaller record index, and each chunk runs the same one-to-many kernel, so
// the chosen representative never depends on the worker count.
func FPFPar(embeddings vecmath.Matrix, k, start, p int) []int {
	var scratch []float64 // one shared sweep buffer, overwritten per iteration
	return fpfSweep(embeddings, k, start, p, func(int) []float64 {
		if scratch == nil {
			scratch = make([]float64, embeddings.Rows())
		}
		return scratch
	})
}

// FPFParDists is FPFPar, additionally returning the representative-by-record
// squared-distance matrix the selection sweep computes as a byproduct: row j
// holds the squared distance from representative j (in selection order) to
// every record. The squared-distance kernel is bitwise symmetric in its
// arguments — each lane difference only flips sign before it is squared — so
// every entry equals the record-to-representative distance a table scan
// would recompute, and BuildTableFromDists can consume the matrix without
// re-streaming the embeddings. The retained matrix costs rows×records
// float64s; DistCacheFits is the deterministic size gate callers apply first.
func FPFParDists(embeddings vecmath.Matrix, k, start, p int) ([]int, vecmath.Matrix) {
	n := embeddings.Rows()
	rows := k
	if rows > n {
		rows = n
	}
	if rows < 0 {
		rows = 0
	}
	d := vecmath.NewMatrix(rows, n)
	reps := fpfSweep(embeddings, k, start, p, d.Row)
	return reps, d.RowRange(0, len(reps))
}

// fpfSweep is the shared FPF loop. distRow hands back the batch-kernel
// output buffer for iteration it — a single recycled scratch slice for plain
// selection, or the it-th row of a retained distance matrix.
func fpfSweep(embeddings vecmath.Matrix, k, start, p int, distRow func(it int) []float64) []int {
	n := embeddings.Rows()
	if k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if start < 0 || start >= n {
		panic(fmt.Sprintf("cluster: FPF start %d out of range [0,%d)", start, n))
	}
	reps := make([]int, 0, k)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	// Each iteration updates every record's distance to the newest
	// representative and finds the global argmax — the dominant cost of
	// index construction, so the sweep is the pipeline's hottest loop.
	type candidate struct {
		idx  int
		dist float64
	}
	cur := start
	for len(reps) < k {
		dists := distRow(len(reps)) // chunk-disjoint writes
		reps = append(reps, cur)
		curEmb := embeddings.Row(cur)
		parts := parallel.Map(p, n, func(_ int, s parallel.Span) candidate {
			vecmath.SquaredL2Batch(curEmb, embeddings.RowRange(s.Lo, s.Hi), dists[s.Lo:s.Hi])
			far, farDist := -1, -1.0
			for i := s.Lo; i < s.Hi; i++ {
				if dists[i] < minDist[i] {
					minDist[i] = dists[i]
				}
				if minDist[i] > farDist {
					far, farDist = i, minDist[i]
				}
			}
			return candidate{far, farDist}
		})
		far, farDist := -1, -1.0
		for _, c := range parts {
			if c.dist > farDist || (c.dist == farDist && c.idx < far) {
				far, farDist = c.idx, c.dist
			}
		}
		if farDist == 0 { // every point coincides with a representative
			break
		}
		cur = far
	}
	return reps
}

// FPFMixed selects k representatives, the first (1-randomFrac)·k by FPF and
// the remainder uniformly at random from records not yet selected, using all
// CPUs. The paper mixes in a small random fraction to help average-case
// queries while FPF covers the outliers.
func FPFMixed(r *rand.Rand, embeddings vecmath.Matrix, k int, randomFrac float64) []int {
	return FPFMixedPar(r, embeddings, k, randomFrac, 0)
}

// FPFMixedPar is FPFMixed with an explicit parallelism level p (p <= 0 uses
// all CPUs). The random draws consume r identically at every p, so the full
// selection depends only on r, never on the worker count.
func FPFMixedPar(r *rand.Rand, embeddings vecmath.Matrix, k int, randomFrac float64, p int) []int {
	n := embeddings.Rows()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	if randomFrac < 0 || randomFrac > 1 {
		panic(fmt.Sprintf("cluster: randomFrac %v out of [0,1]", randomFrac))
	}
	numRandom := int(math.Round(randomFrac * float64(k)))
	numFPF := k - numRandom
	var reps []int
	selected := make(map[int]bool, k)
	if numFPF > 0 {
		reps = FPFPar(embeddings, numFPF, r.Intn(n), p)
		for _, id := range reps {
			selected[id] = true
		}
	}
	for len(reps) < k {
		id := r.Intn(n)
		if selected[id] {
			continue
		}
		selected[id] = true
		reps = append(reps, id)
	}
	return reps
}

// FPFMixedParDists is FPFMixedPar, additionally returning the
// representative-by-record squared-distance matrix row-aligned with the
// returned representatives (see FPFParDists). Rows for the FPF prefix fall
// out of the selection sweep itself; rows for the random tail are filled
// afterwards with the same one-to-many kernel. The selection consumes r
// exactly as FPFMixedPar does, so the two functions pick identical
// representatives from identical r, and the matrix values are bitwise
// identical to a fresh scan at every parallelism level.
func FPFMixedParDists(r *rand.Rand, embeddings vecmath.Matrix, k int, randomFrac float64, p int) ([]int, vecmath.Matrix) {
	n := embeddings.Rows()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil, vecmath.Matrix{}
	}
	if randomFrac < 0 || randomFrac > 1 {
		panic(fmt.Sprintf("cluster: randomFrac %v out of [0,1]", randomFrac))
	}
	numRandom := int(math.Round(randomFrac * float64(k)))
	numFPF := k - numRandom
	d := vecmath.NewMatrix(k, n)
	var reps []int
	selected := make(map[int]bool, k)
	if numFPF > 0 {
		reps = fpfSweep(embeddings, numFPF, r.Intn(n), p, d.Row)
		for _, id := range reps {
			selected[id] = true
		}
	}
	firstRandom := len(reps)
	for len(reps) < k {
		id := r.Intn(n)
		if selected[id] {
			continue
		}
		selected[id] = true
		reps = append(reps, id)
	}
	// The random tail never ran through the sweep; fill its rows now, one
	// whole row per representative so each write stays chunk-disjoint.
	if tail := len(reps) - firstRandom; tail > 0 {
		parallel.ForChunks(p, tail, func(_ int, s parallel.Span) {
			for j := firstRandom + s.Lo; j < firstRandom+s.Hi; j++ {
				vecmath.SquaredL2Batch(embeddings.Row(reps[j]), embeddings, d.Row(j))
			}
		})
	}
	return reps, d.RowRange(0, len(reps))
}

// maxDistCacheBytes caps the FPF distance matrix retained for
// BuildTableFromDists at 256 MiB. Beyond it, builds fall back to re-scanning
// the embeddings, trading the extra memory bandwidth for bounded residency.
const maxDistCacheBytes = 256 << 20

// DistCacheFits reports whether an n-record, k-representative squared
// distance matrix fits the retention budget. The decision depends only on
// the two counts — never on worker count or observed memory pressure — so
// whether a build takes the cached-table path is deterministic for a given
// configuration, and both paths produce bitwise-identical tables anyway.
func DistCacheFits(n, k int) bool {
	if n <= 0 || k <= 0 {
		return false
	}
	return k <= maxDistCacheBytes/8/n
}

// DistCacheFitsPlane is DistCacheFits; the dim and plane arguments are
// ignored now that every build scans the one float plane.
//
// Deprecated: use DistCacheFits.
func DistCacheFitsPlane(n, k, _ int, _ bool) bool { return DistCacheFits(n, k) }

// RandomReps selects k distinct representatives uniformly at random, the
// baseline the paper's lesion study compares FPF clustering against.
func RandomReps(r *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	perm := r.Perm(n)
	reps := append([]int(nil), perm[:k]...)
	return reps
}

// MaxMinDistance returns the maximum over all records of the distance to the
// nearest representative — the clustering-density quantity bounded by the
// paper's Theorems 1 and 2.
func MaxMinDistance(embeddings vecmath.Matrix, reps []int) float64 {
	repMat := vecmath.GatherRows(embeddings, reps)
	worst := parallel.Reduce(0, embeddings.Rows(), 0.0, func(_ int, s parallel.Span) float64 {
		dists := make([]float64, repMat.Rows()) // per-chunk scratch
		chunkWorst := 0.0
		for i := s.Lo; i < s.Hi; i++ {
			vecmath.SquaredL2Batch(embeddings.Row(i), repMat, dists)
			best := math.Inf(1)
			for _, d := range dists {
				if d < best {
					best = d
				}
			}
			if best > chunkWorst {
				chunkWorst = best
			}
		}
		return chunkWorst
	}, math.Max)
	return math.Sqrt(worst)
}
