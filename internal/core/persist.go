package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"log/slog"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/snapshot"
	"repro/internal/vecmath"
)

// The annotation cache holds interface values, so gob needs the concrete
// annotation types registered — but the registration lives in exactly one
// place: package dataset's init (dataset/persist.go), which this package
// imports. Index snapshots, build checkpoints, and dataset files all decode
// through that single registration point, so adding an annotation schema
// cannot silently break one decoder while the others keep working.
var _ = dataset.GobAnnotationsRegistered

// Snapshot kinds: the artifact-type strings baked into the framed container
// header, so loading a checkpoint as an index fails with snapshot.ErrKind
// instead of a confusing decode error.
const (
	indexKind      = "tasti-index"
	checkpointKind = "tasti-checkpoint"
)

// Embedding frame names: v2 snapshots persist the contiguous matrix as one
// flat frame; v1 snapshots carried a gob [][]float64. Load picks the decoder
// by the frame name it finds, so both generations stay readable.
const (
	embeddingsFlatFrame   = "embeddings.flat"
	embeddingsLegacyFrame = "embeddings"
)

// embedderFrame is the optional trailing frame carrying the embedding model
// (embed.Snapshot), so a restored index can keep appending records with
// bitwise-identical embeddings — the prerequisite for WAL replay after a
// restart. Optional on both sides: snapshots written before this frame
// existed load with Embedder == nil exactly as they always did, and readers
// from before it skip unknown trailing frames in Drain, so no container
// version bump is needed.
const embedderFrame = "embedder"

// indexMeta is the first frame of an index snapshot: everything cheap, so a
// reader can reject a damaged or mismatched file before decoding the bulky
// sections.
type indexMeta struct {
	K    int
	Reps []int
}

// flatEmbeddings is the on-disk form of the embedding matrix: the shape plus
// the matrix's backing array, encoded as a single frame instead of one gob
// slice header per record.
type flatEmbeddings struct {
	Rows, Dim int
	Data      []float64
}

// gobSnapshot is the legacy (pre-framing) on-disk form: one bare
// encoding/gob stream with no version, checksum, or atomicity. Load still
// reads it so pre-existing snapshots keep working; Save always writes the
// framed format.
type gobSnapshot struct {
	K           int
	Reps        []int
	Neighbors   [][]cluster.Neighbor
	Annotations map[int]dataset.Annotation
	Embeddings  [][]float64
	Stats       BuildStats
}

// Save serializes the index in the framed snapshot format: magic, version,
// and per-section checksummed frames (see internal/snapshot), with a
// whole-file checksum trailer. The embedding matrix is written as one flat
// frame — shape plus contiguous backing array. Pair it with snapshot.WriteFile
// for an atomic, fsynced on-disk replacement.
func (ix *Index) Save(w io.Writer) error {
	sw, err := snapshot.NewWriter(w, indexKind)
	if err != nil {
		return fmt.Errorf("core: saving index: %w", err)
	}
	sections := []struct {
		name string
		v    any
	}{
		{"meta", indexMeta{K: ix.Table.K, Reps: ix.Table.Reps}},
		{"neighbors", ix.Table.Neighbors},
		{"annotations", ix.Annotations},
		{embeddingsFlatFrame, flatEmbeddings{
			Rows: ix.Embeddings.Rows(),
			Dim:  ix.Embeddings.Dim(),
			Data: ix.Embeddings.Data(),
		}},
		{"stats", ix.Stats},
	}
	for _, s := range sections {
		if err := sw.Encode(s.name, s.v); err != nil {
			return fmt.Errorf("core: saving index: %w", err)
		}
	}
	if ix.Embedder != nil {
		es, err := embed.NewSnapshot(ix.Embedder)
		if err != nil {
			// An unserializable embedder degrades the snapshot to the historic
			// contract (loads with Embedder == nil, no appends after restart)
			// instead of failing the save.
			slog.Warn("core: index snapshot omits the embedding model; appends will be unavailable after a restore", "err", err.Error())
		} else if err := sw.Encode(embedderFrame, es); err != nil {
			return fmt.Errorf("core: saving index: %w", err)
		}
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("core: saving index: %w", err)
	}
	return nil
}

// decodeEmbeddingsFrame decodes the embeddings section of a framed snapshot,
// accepting both the v2 flat layout and the v1 per-row gob layout, with the
// shape validated (row count × dim overflow, backing-array length, ragged
// rows) before the matrix is trusted.
func decodeEmbeddingsFrame(sr *snapshot.Reader) (vecmath.Matrix, error) {
	name, payload, err := sr.Next()
	if err == io.EOF {
		return vecmath.Matrix{}, fmt.Errorf("%w: missing frame %q", snapshot.ErrTruncated, embeddingsFlatFrame)
	}
	if err != nil {
		return vecmath.Matrix{}, err
	}
	switch name {
	case embeddingsFlatFrame:
		var flat flatEmbeddings
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&flat); err != nil {
			return vecmath.Matrix{}, fmt.Errorf("snapshot: decoding frame %q: %w", name, err)
		}
		m, err := vecmath.MatrixFromFlat(flat.Data, flat.Rows, flat.Dim)
		if err != nil {
			return vecmath.Matrix{}, fmt.Errorf("core: embeddings frame: %w", err)
		}
		return m, nil
	case embeddingsLegacyFrame:
		var rows [][]float64
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rows); err != nil {
			return vecmath.Matrix{}, fmt.Errorf("snapshot: decoding frame %q: %w", name, err)
		}
		m, err := vecmath.TryFromRows(rows)
		if err != nil {
			return vecmath.Matrix{}, fmt.Errorf("core: embeddings frame: %w", err)
		}
		return m, nil
	default:
		return vecmath.Matrix{}, fmt.Errorf("snapshot: unexpected frame %q, want %q or %q",
			name, embeddingsFlatFrame, embeddingsLegacyFrame)
	}
}

// Load deserializes an index saved with Save. It sniffs the magic bytes:
// framed snapshots are decoded with per-section and whole-file checksum
// verification and a typed error taxonomy (snapshot.ErrChecksum,
// ErrTruncated, ...), with the embeddings section accepted in both the v2
// flat layout and the v1 per-row layout; anything else falls back to the
// legacy bare-gob decoder for pre-framing snapshots, with a deprecation
// warning. The returned index propagates scores and supports cracking; when
// the snapshot carries the optional embedder frame (see embedderFrame) the
// embedding model is restored too, so AppendRecords keeps working — older
// snapshots load with Embedder == nil exactly as before.
func Load(r io.Reader) (*Index, error) {
	framed, replay, err := snapshot.Sniff(r)
	if err != nil {
		return nil, fmt.Errorf("core: loading index: %w", err)
	}
	var snap gobSnapshot
	var embeddings vecmath.Matrix
	var embedder embed.Embedder
	if framed {
		sr, err := snapshot.NewReader(replay, indexKind)
		if err != nil {
			return nil, fmt.Errorf("core: loading index: %w", err)
		}
		var meta indexMeta
		if err := sr.Decode("meta", &meta); err != nil {
			return nil, fmt.Errorf("core: loading index: %w", err)
		}
		snap.K, snap.Reps = meta.K, meta.Reps
		if err := sr.Decode("neighbors", &snap.Neighbors); err != nil {
			return nil, fmt.Errorf("core: loading index: %w", err)
		}
		if err := sr.Decode("annotations", &snap.Annotations); err != nil {
			return nil, fmt.Errorf("core: loading index: %w", err)
		}
		if embeddings, err = decodeEmbeddingsFrame(sr); err != nil {
			return nil, fmt.Errorf("core: loading index: %w", err)
		}
		if err := sr.Decode("stats", &snap.Stats); err != nil {
			return nil, fmt.Errorf("core: loading index: %w", err)
		}
		// Walk every remaining frame through the trailer, so the whole-file
		// checksum is verified before any decoded state is trusted. Optional
		// trailing frames (today: the embedder) are decoded by name; unknown
		// ones are skipped for forward compatibility, as is the
		// "embeddings.quant" frame older v3 writers emitted for the removed
		// quantized scan plane.
		for {
			name, payload, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("core: loading index: %w", err)
			}
			if name != embedderFrame {
				continue
			}
			var es embed.Snapshot
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&es); err != nil {
				return nil, fmt.Errorf("core: loading index: decoding frame %q: %w", name, err)
			}
			if embedder, err = es.Embedder(); err != nil {
				return nil, fmt.Errorf("core: loading index: %w", err)
			}
		}
	} else {
		if err := gob.NewDecoder(replay).Decode(&snap); err != nil {
			return nil, fmt.Errorf("core: loading index: not a framed snapshot and legacy gob decode failed (%v): %w",
				err, snapshot.ErrBadMagic)
		}
		slog.Warn("core: loaded legacy un-checksummed gob index snapshot; re-save to upgrade to the framed format")
		if embeddings, err = vecmath.TryFromRows(snap.Embeddings); err != nil {
			return nil, fmt.Errorf("core: loading index: embeddings: %w", err)
		}
	}
	if embeddings.Rows() != len(snap.Neighbors) {
		return nil, fmt.Errorf("core: loaded index invalid: %d embedding rows for %d neighbor lists",
			embeddings.Rows(), len(snap.Neighbors))
	}
	if embedder != nil && embeddings.Rows() > 0 && embedder.Dim() != embeddings.Dim() {
		return nil, fmt.Errorf("core: loaded index invalid: embedder outputs dim %d, embeddings have dim %d",
			embedder.Dim(), embeddings.Dim())
	}
	ix := &Index{
		Embedder:   embedder,
		Embeddings: embeddings,
		Table: &cluster.Table{
			K:         snap.K,
			Reps:      snap.Reps,
			Neighbors: snap.Neighbors,
		},
		Annotations: snap.Annotations,
		Stats:       snap.Stats,
	}
	if err := ix.Table.Validate(); err != nil {
		return nil, fmt.Errorf("core: loaded index invalid: %w", err)
	}
	return ix, nil
}
