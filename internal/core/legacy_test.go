package core

import (
	"bytes"
	"io"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query/limitq"
	"repro/internal/snapshot"
)

// legacyQuantFixture is a small index snapshot written while the int8
// quantized scan plane still existed (240 records, 24 representatives,
// dim 16, three cracks): a v3 container whose "embeddings.quant" frame sits
// between "stats" and "embedder".
const legacyQuantFixture = "testdata/legacy_quant_v3.snap"

// legacyQuantFrame names the removed plane's frame.
const legacyQuantFrame = "embeddings.quant"

// legacyQuantEmbeddings is the removed plane's frame payload as old writers
// encoded it, kept here to forge frames of that shape.
type legacyQuantEmbeddings struct {
	Rows, Dim int
	Scale     []float64
	Offset    []float64
	MaxErr    float64
	Codes     []uint8
}

// readLegacyQuantFixture returns the fixture's bytes, memoized because fuzz
// workers re-run the seed setup.
var readLegacyQuantFixture = sync.OnceValues(func() ([]byte, error) {
	return os.ReadFile(legacyQuantFixture)
})

// strippedLegacyIndex is the fixture loaded with its quant frame removed:
// the reference every legacy load must match.
var strippedLegacyIndex = sync.OnceValues(func() (*Index, error) {
	data, err := readLegacyQuantFixture()
	if err != nil {
		return nil, err
	}
	stripped, err := rewriteFrame(data, indexKind, legacyQuantFrame, nil, true)
	if err != nil {
		return nil, err
	}
	return Load(bytes.NewReader(stripped))
})

// rewriteFrame copies a framed container at its own version, dropping the
// frame called name (drop) or replacing its payload with payload.
func rewriteFrame(data []byte, kind, name string, payload []byte, drop bool) ([]byte, error) {
	sr, err := snapshot.NewReader(bytes.NewReader(data), kind)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	sw, err := snapshot.NewWriterVersion(&out, kind, sr.Version())
	if err != nil {
		return nil, err
	}
	for {
		n, p, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if n == name {
			if drop {
				continue
			}
			p = payload
		}
		if err := sw.Frame(n, p); err != nil {
			return nil, err
		}
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// readFrames returns a framed container's frame payloads by name.
func readFrames(t testing.TB, data []byte, kind string) map[string][]byte {
	t.Helper()
	sr, err := snapshot.NewReader(bytes.NewReader(data), kind)
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string][]byte{}
	for {
		name, payload, err := sr.Next()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		frames[name] = payload
	}
}

// sameFloatBits fails unless got and want are float64-bitwise identical.
func sameFloatBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bitwise mismatch)", name, i, got[i], want[i])
		}
	}
}

// assertSameAnswers requires two indexes to hold bitwise-identical state
// and to answer Propagate, PropagateNearest, and the limit order bitwise
// identically.
func assertSameAnswers(t *testing.T, got, want *Index) {
	t.Helper()
	assertIndexesIdentical(t, want, got, 0)
	score := CountScore("car")
	gp, err := got.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := want.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	sameFloatBits(t, "Propagate", gp, wp)
	gs, gd, err := got.PropagateNearest(score)
	if err != nil {
		t.Fatal(err)
	}
	ws, wd, err := want.PropagateNearest(score)
	if err != nil {
		t.Fatal(err)
	}
	sameFloatBits(t, "PropagateNearest scores", gs, ws)
	sameFloatBits(t, "PropagateNearest dists", gd, wd)
	gotOrder, wantOrder := limitq.Order(gs, gd), limitq.Order(ws, wd)
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("LimitOrder[%d] = %d, want %d", i, gotOrder[i], wantOrder[i])
		}
	}
}

// TestLegacyQuantSnapshotLoads: a v3 snapshot written with the removed
// quantized plane loads with the frame skipped, answers bitwise identically
// to the same file without the frame, keeps cracking and appending through
// its restored embedder, and re-saves without the frame.
func TestLegacyQuantSnapshotLoads(t *testing.T) {
	data, err := readLegacyQuantFixture()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := readFrames(t, data, indexKind)[legacyQuantFrame]; !ok {
		t.Fatalf("fixture carries no %q frame; it no longer exercises the skip", legacyQuantFrame)
	}
	got, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("loading legacy quantized snapshot: %v", err)
	}
	want, err := strippedLegacyIndex()
	if err != nil {
		t.Fatal(err)
	}
	if got.Embedder == nil {
		t.Fatal("legacy snapshot lost its embedder")
	}
	assertSameAnswers(t, got, want)

	var resaved bytes.Buffer
	if err := got.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if _, ok := readFrames(t, resaved.Bytes(), indexKind)[legacyQuantFrame]; ok {
		t.Fatalf("re-saved snapshot still carries %q", legacyQuantFrame)
	}

	// Both copies evolve identically: the loaded index is fully live.
	twin, err := Load(bytes.NewReader(resaved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	more, err := dataset.Generate("night-street", 30, 12)
	if err != nil {
		t.Fatal(err)
	}
	features := make([][]float64, more.Len())
	for i := range features {
		features[i] = more.Records[i].Features
	}
	for _, ix := range []*Index{got, twin} {
		ix.CrackAll(map[int]dataset.Annotation{11: more.Truth[0], 200: more.Truth[1]})
		if _, err := ix.AppendRecords(features); err != nil {
			t.Fatal(err)
		}
	}
	assertSameAnswers(t, twin, got)
}
