package shard_test

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// Snapshots written while the int8 quantized scan plane still existed: v3
// containers whose index payloads each carry an "embeddings.quant" frame.
// The single-index fixture is shared with internal/core's compatibility
// tests.
const (
	legacyQuantShardFixture  = "testdata/legacy_quant_v3_2shard.snap"
	legacyQuantSingleFixture = "../core/testdata/legacy_quant_v3.snap"
	coreIndexKind            = "tasti-index"
)

// withoutQuantFrames copies a framed container at its own version minus
// every "embeddings.quant" frame, recursing into nested shard payloads, and
// reports how many frames it dropped.
func withoutQuantFrames(t *testing.T, data []byte, kind string) ([]byte, int) {
	t.Helper()
	sr, err := snapshot.NewReader(bytes.NewReader(data), kind)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sw, err := snapshot.NewWriterVersion(&out, kind, sr.Version())
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for {
		name, payload, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case name == "embeddings.quant":
			dropped++
			continue
		case kind == shard.IndexKind && strings.HasPrefix(name, "shard."):
			var n int
			payload, n = withoutQuantFrames(t, payload, coreIndexKind)
			dropped += n
		}
		if err := sw.Frame(name, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), dropped
}

// sameShardedAnswers compares every scatter-gather query path bitwise.
func sameShardedAnswers(t *testing.T, got, want *shard.Index) {
	t.Helper()
	score := core.CountScore("car")
	gp, err := got.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := want.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "Propagate", gp, wp)
	gs, gd, err := got.PropagateNearest(score)
	if err != nil {
		t.Fatal(err)
	}
	ws, wd, err := want.PropagateNearest(score)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "PropagateNearest scores", gs, ws)
	sameBits(t, "PropagateNearest dists", gd, wd)
	sameInts(t, "LimitOrder", got.LimitOrder(gs, gd), want.LimitOrder(ws, wd))
}

// TestLegacyQuantShardSnapshotLoads: a 2-shard snapshot carrying the removed
// plane's frames loads through Load and LoadShard with the frames skipped,
// bitwise identical to the same file without them.
func TestLegacyQuantShardSnapshotLoads(t *testing.T) {
	data, err := os.ReadFile(legacyQuantShardFixture)
	if err != nil {
		t.Fatal(err)
	}
	stripped, dropped := withoutQuantFrames(t, data, shard.IndexKind)
	if dropped != 2 {
		t.Fatalf("fixture carries %d quant frames, want one per shard (2)", dropped)
	}
	got, err := shard.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("loading legacy quantized sharded snapshot: %v", err)
	}
	want, err := shard.Load(bytes.NewReader(stripped))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShards() != 2 || want.NumShards() != 2 {
		t.Fatalf("loaded %d and %d shards, want 2", got.NumShards(), want.NumShards())
	}
	for s := 0; s < got.NumShards(); s++ {
		if !reflect.DeepEqual(got.Shard(s), want.Shard(s)) {
			t.Fatalf("shard %d differs from the frame-stripped load", s)
		}
		one, err := shard.LoadShard(bytes.NewReader(data), s)
		if err != nil {
			t.Fatalf("LoadShard(%d): %v", s, err)
		}
		if !reflect.DeepEqual(one, want.Shard(s)) {
			t.Fatalf("LoadShard(%d) differs from the frame-stripped load", s)
		}
	}
	for _, par := range []int{1, 4} {
		got.SetParallelism(par)
		want.SetParallelism(par)
		sameShardedAnswers(t, got, want)
	}
}

// TestLegacyQuantSingleSnapshotSplits: the single-index fixture, loaded the
// way a sharded server boots a legacy snapshot (core.Load, then Split),
// answers bitwise identically to the frame-stripped file at every shard
// count.
func TestLegacyQuantSingleSnapshotSplits(t *testing.T) {
	data, err := os.ReadFile(legacyQuantSingleFixture)
	if err != nil {
		t.Fatal(err)
	}
	stripped, dropped := withoutQuantFrames(t, data, coreIndexKind)
	if dropped != 1 {
		t.Fatalf("fixture carries %d quant frames, want 1", dropped)
	}
	for _, shards := range []int{1, 2, 4} {
		split := func(b []byte) *shard.Index {
			ix, err := core.Load(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			x, err := shard.Split(ix, shards)
			if err != nil {
				t.Fatal(err)
			}
			return x
		}
		sameShardedAnswers(t, split(data), split(stripped))
	}
}
