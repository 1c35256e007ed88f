package cluster

import (
	"testing"

	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// TestFPFParDistsMatchesFPFPar pins the byproduct contract: the selection is
// unchanged, and every retained row is bitwise identical to a fresh batch
// sweep of that representative against the whole matrix.
func TestFPFParDistsMatchesFPFPar(t *testing.T) {
	emb := benchEmbeddings(300, 16)
	for _, p := range []int{1, 3} {
		plain := FPFPar(emb, 40, 7, p)
		reps, dists := FPFParDists(emb, 40, 7, p)
		if len(reps) != len(plain) {
			t.Fatalf("p=%d: %d reps with dists, %d without", p, len(reps), len(plain))
		}
		for i := range reps {
			if reps[i] != plain[i] {
				t.Fatalf("p=%d: rep %d is %d with dists, %d without", p, i, reps[i], plain[i])
			}
		}
		if dists.Rows() != len(reps) || dists.Dim() != emb.Rows() {
			t.Fatalf("p=%d: distance matrix is %dx%d, want %dx%d", p, dists.Rows(), dists.Dim(), len(reps), emb.Rows())
		}
		fresh := make([]float64, emb.Rows())
		for j, rep := range reps {
			vecmath.SquaredL2Batch(emb.Row(rep), emb, fresh)
			row := dists.Row(j)
			for i, want := range fresh {
				if row[i] != want {
					t.Fatalf("p=%d: dists[%d][%d] = %v, want %v", p, j, i, row[i], want)
				}
			}
		}
	}
}

// TestFPFMixedParDistsMatchesFPFMixedPar checks that the dists variant
// consumes the RNG identically (same representatives, including the random
// tail) and that the tail rows carry real kernel distances.
func TestFPFMixedParDistsMatchesFPFMixedPar(t *testing.T) {
	emb := benchEmbeddings(250, 12)
	for _, p := range []int{1, 4} {
		plain := FPFMixedPar(xrand.New(9), emb, 50, 0.2, p)
		reps, dists := FPFMixedParDists(xrand.New(9), emb, 50, 0.2, p)
		if len(reps) != len(plain) {
			t.Fatalf("p=%d: %d reps with dists, %d without", p, len(reps), len(plain))
		}
		for i := range reps {
			if reps[i] != plain[i] {
				t.Fatalf("p=%d: rep %d is %d with dists, %d without", p, i, reps[i], plain[i])
			}
		}
		fresh := make([]float64, emb.Rows())
		for j, rep := range reps {
			vecmath.SquaredL2Batch(emb.Row(rep), emb, fresh)
			row := dists.Row(j)
			for i, want := range fresh {
				if row[i] != want {
					t.Fatalf("p=%d: dists[%d][%d] = %v, want %v", p, j, i, row[i], want)
				}
			}
		}
	}
}

// TestBuildTableFromDistsMatchesBuildTablePar is the bitwise-equivalence
// property the cached build path in core relies on: same neighbor IDs, same
// bits in every distance, at every parallelism level, including k larger
// than the representative count (short rows) and k smaller (real selection).
func TestBuildTableFromDistsMatchesBuildTablePar(t *testing.T) {
	emb := benchEmbeddings(700, 8)
	for _, tc := range []struct{ numReps, k int }{
		{60, 5},
		{3, 5}, // fewer reps than k: rows are capped at len(reps)
		{1, 1},
	} {
		reps, dists := FPFParDists(emb, tc.numReps, 11, 2)
		for _, p := range []int{1, 3} {
			want := BuildTablePar(emb, reps, tc.k, p)
			got := BuildTableFromDists(dists, reps, tc.k, p)
			if err := got.Validate(); err != nil {
				t.Fatalf("reps=%d k=%d p=%d: invalid table: %v", tc.numReps, tc.k, p, err)
			}
			if got.K != want.K || len(got.Neighbors) != len(want.Neighbors) {
				t.Fatalf("reps=%d k=%d p=%d: shape mismatch", tc.numReps, tc.k, p)
			}
			for i := range want.Neighbors {
				w, g := want.Neighbors[i], got.Neighbors[i]
				if len(w) != len(g) {
					t.Fatalf("reps=%d k=%d p=%d: record %d has %d neighbors, want %d", tc.numReps, tc.k, p, i, len(g), len(w))
				}
				for j := range w {
					if w[j] != g[j] {
						t.Fatalf("reps=%d k=%d p=%d: record %d neighbor %d = %+v, want %+v", tc.numReps, tc.k, p, i, j, g[j], w[j])
					}
				}
			}
		}
	}
}

// TestBuildTableFromDistsTies forces exact distance ties (duplicated rows)
// and checks the tie-break matches the scan path bitwise.
func TestBuildTableFromDistsTies(t *testing.T) {
	base := benchEmbeddings(40, 4)
	emb := vecmath.NewMatrix(80, 4)
	for i := 0; i < 80; i++ {
		copy(emb.Row(i), base.Row(i%40))
	}
	reps, dists := FPFParDists(emb, 20, 0, 1)
	want := BuildTablePar(emb, reps, 6, 1)
	got := BuildTableFromDists(dists, reps, 6, 1)
	for i := range want.Neighbors {
		for j := range want.Neighbors[i] {
			if want.Neighbors[i][j] != got.Neighbors[i][j] {
				t.Fatalf("record %d neighbor %d = %+v, want %+v", i, j, got.Neighbors[i][j], want.Neighbors[i][j])
			}
		}
	}
}

func TestDistCacheFits(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		want bool
	}{
		{0, 10, false},
		{10, 0, false},
		{-1, 5, false},
		{6000, 600, true},                // the bench shape: ~28.8 MB
		{1 << 20, 1 << 10, false},        // 8 GiB: over budget
		{int(^uint(0) >> 1), 1, false},   // n alone overflows the budget
		{1, maxDistCacheBytes / 8, true}, // exactly at the cap
		{1, maxDistCacheBytes/8 + 1, false},
	} {
		if got := DistCacheFits(tc.n, tc.k); got != tc.want {
			t.Errorf("DistCacheFits(%d, %d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
	}
}

// TestDistCacheFitsPlane pins the deprecated wrapper to DistCacheFits at
// either plane flag: with one float plane the flag no longer changes the
// cache decision.
func TestDistCacheFitsPlane(t *testing.T) {
	for _, tc := range []struct{ n, k, dim int }{
		{1000, 100, 128}, {1000, 113, 128}, {1 << 20, 1 << 20, 128}, {1 << 22, 1 << 10, 1 << 20},
	} {
		for _, quantized := range []bool{false, true} {
			if got, want := DistCacheFitsPlane(tc.n, tc.k, tc.dim, quantized), DistCacheFits(tc.n, tc.k); got != want {
				t.Errorf("DistCacheFitsPlane(%d, %d, %d, %v) = %v, DistCacheFits %v", tc.n, tc.k, tc.dim, quantized, got, want)
			}
		}
	}
}
