package model

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/taxonomy"
	"repro/internal/vecmath"
)

// errGobDecode marks failures of the gob layer itself, as opposed to
// semantic validation of a successfully decoded payload. Load uses the
// distinction to phrase its errors: only a gob failure means "this isn't
// (or no longer is) a model file"; a validation failure on a decoded
// payload is reported as what it is.
var errGobDecode = errors.New("gob decode failed")

// Model files start with a fixed magic and a format version so Load can
// tell a tfrec model from arbitrary bytes and a current file from one
// written by a future build, instead of surfacing a bare gob decode
// error. Files written before the header existed (raw gob) remain
// readable: Load falls back to a headerless decode when the magic is
// absent.
var fileMagic = [8]byte{'T', 'F', 'R', 'E', 'C', 'M', 'D', 'L'}

// fileVersion is the current on-disk format. Bump it when the persisted
// struct changes incompatibly; Load rejects newer versions with a clear
// error instead of a decode failure deep inside gob. Version history:
//
//	1 — magic + version header over the gob payload
//	2 — payload carries the snapshot's serving Precision, so a model
//	    validated for the two-stage f32 pipeline records that choice and
//	    round-trips it; v1 and legacy headerless files decode with
//	    PrecisionDefault
//	3 — Precision may record the quantized int8 tier, and every factor
//	    and bias value in the payload must be finite: a NaN/Inf row would
//	    quantize to a NaN/Inf scale/offset pair and poison scoring, so
//	    hostile values are rejected at load time rather than surfacing at
//	    score time (the finite check applies to older payloads too)
//	4 — flat memory-mappable layout (see format4.go): little-endian
//	    64-byte-aligned sections behind a checksummed offset table, with
//	    every serving structure (composed factors, f32/int8 tiers, DFS
//	    layout, prune envelopes) precomputed at save time so LoadFile can
//	    serve zero-copy from a mapping. Save writes v4, streaming each
//	    section from the raw model in two passes (checksum, then write)
//	    instead of composing the snapshot in memory — the bytes are the
//	    same either way; SaveGob still writes v3 for tooling that needs
//	    the gob form, and v1–v3 files keep loading through the gob path
//	    below
const fileVersion uint32 = 4

// gobFileVersion is the format SaveGob writes: the last gob-based layout.
const gobFileVersion uint32 = 3

// headerLen is the magic plus a big-endian uint32 version.
const headerLen = len(fileMagic) + 4

// persisted is the gob wire form of a TF model: hyper-parameters, the
// taxonomy's parent array, and the three factor matrices flattened.
type persisted struct {
	Params   Params
	Parents  []int
	NumUsers int
	User     []float64
	Node     []float64
	Next     []float64
	Bias     []float64
	// Precision is the serving precision preference format version 2
	// recorded. Save writes PrecisionDefault; Load range-checks it and
	// otherwise ignores it, since the serving tier is the host's (see
	// Precision.Resolve).
	Precision Precision
}

// Save writes the model (including its taxonomy) to w in the current v4
// flat format: everything a serving snapshot needs — composed factors,
// both reduced-precision tiers, layout tables, prune envelopes — is laid
// out as checksummed aligned sections, so load is O(1) in heap work.
//
// Save streams the file without composing the snapshot in memory. Every
// section is derived row by row from the raw model, twice: once to
// checksum it (the header and section table carry the CRCs ahead of the
// data) and once to write it through a buffer. Its heap stays at
// O(numNodes) tables plus O(interior nodes × K) caches, and the bytes are
// identical to writing the slabs of a Compose() snapshot. Use SaveGob for
// the legacy gob form.
func (m *TF) Save(w io.Writer) error {
	return newSaveStream(m).writeTo(w)
}

// SaveGob writes the model in the v3 gob format — the pre-mmap layout the
// v1–v3 fallback of Load still reads. The converter, benchmarks and
// format-migration tests use it; new files should use Save.
func (m *TF) SaveGob(w io.Writer) error {
	var header [headerLen]byte
	copy(header[:], fileMagic[:])
	binary.BigEndian.PutUint32(header[len(fileMagic):], gobFileVersion)
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("model: write header: %w", err)
	}
	p := persisted{
		Params:   m.P,
		Parents:  m.Tree.ParentArray(),
		NumUsers: m.NumUsers(),
		User:     m.User.CompactData(),
		Node:     m.Node.CompactData(),
		Next:     m.Next.CompactData(),
		Bias:     m.Bias.CompactData(),
	}
	return gob.NewEncoder(w).Encode(&p)
}

// Load reads a model written by Save, rebuilding and revalidating the
// taxonomy. It accepts both current headered files and legacy headerless
// gob files; anything else fails with a "not a tfrec model file" error
// rather than a bare decode error, and files from a newer format version
// are rejected explicitly.
func Load(r io.Reader) (*TF, error) {
	header := make([]byte, headerLen)
	n, err := io.ReadFull(r, header)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, fmt.Errorf("model: read header: %w", err)
	}
	if n == headerLen && bytes.Equal(header[:len(fileMagic)], fileMagic[:]) {
		version := binary.BigEndian.Uint32(header[len(fileMagic):])
		if version > fileVersion {
			return nil, fmt.Errorf("model: file format version %d is newer than this build supports (max %d)", version, fileVersion)
		}
		if version == 4 {
			return loadV4Heap(r, header)
		}
		m, err := decodePersisted(r)
		switch {
		case errors.Is(err, errGobDecode):
			return nil, fmt.Errorf("model: corrupt or truncated model file (format version %d): %w", version, err)
		case err != nil:
			return nil, fmt.Errorf("model: %w", err)
		}
		return m, nil
	}
	// No magic: either a legacy headerless gob file or not a model file at
	// all. Re-feed the consumed prefix and let gob decide.
	m, err := decodePersisted(io.MultiReader(bytes.NewReader(header[:n]), r))
	switch {
	case errors.Is(err, errGobDecode):
		return nil, fmt.Errorf("model: not a tfrec model file (missing %q header and not a legacy gob model): %w", fileMagic, err)
	case err != nil:
		// the gob layer succeeded, so this is a real (legacy) model file
		// with an invalid payload — report the validation failure itself
		return nil, fmt.Errorf("model: %w", err)
	}
	return m, nil
}

// decodePersisted decodes the gob payload and rebuilds the model. Gob
// failures are wrapped in errGobDecode; every later error means the
// payload decoded but did not validate.
func decodePersisted(r io.Reader) (*TF, error) {
	var p persisted
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: %v", errGobDecode, err)
	}
	tree, err := taxonomy.NewFromParents(p.Parents)
	if err != nil {
		return nil, fmt.Errorf("bad taxonomy in file: %w", err)
	}
	if p.NumUsers < 0 {
		return nil, fmt.Errorf("negative user count %d in file", p.NumUsers)
	}
	// MarkovOrder sizes the decay-weight table, which has no payload
	// backing it — bound it so a hostile file cannot demand a giant
	// allocation through a single varint. 2^20 previous transactions is
	// orders of magnitude past any real purchase history.
	const maxFileMarkovOrder = 1 << 20
	if p.Params.MarkovOrder > maxFileMarkovOrder {
		return nil, fmt.Errorf("markov order %d in file exceeds the sanity bound %d", p.Params.MarkovOrder, maxFileMarkovOrder)
	}
	// Check the payload's shape BEFORE building the model: New allocates
	// numUsers×K and numNodes×K matrices up front, so a hostile file
	// declaring a huge K or user count with a tiny payload must die on
	// this length comparison, not on a multi-gigabyte allocation. int64
	// math keeps an adversarial K from overflowing the expected sizes.
	k, numNodes := int64(p.Params.K), int64(len(p.Parents))
	for name, got := range map[string]struct{ have, want int64 }{
		"user": {int64(len(p.User)), int64(p.NumUsers) * k},
		"node": {int64(len(p.Node)), numNodes * k},
		"next": {int64(len(p.Next)), numNodes * k},
		"bias": {int64(len(p.Bias)), numNodes},
	} {
		if name == "bias" && got.have == 0 {
			continue // pre-bias files: zero-filled below
		}
		if got.have != got.want {
			return nil, fmt.Errorf("%s matrix size %d does not match structure %d", name, got.have, got.want)
		}
	}
	// Every scoring tier assumes finite factors: the int8 quantizer in
	// particular derives per-row scale/offset from the row's value range,
	// which a single NaN/Inf entry turns non-finite. Reject hostile
	// payloads here, where the file is the suspect, instead of letting
	// the poison surface in a scoring loop.
	for name, vals := range map[string][]float64{
		"user": p.User, "node": p.Node, "next": p.Next, "bias": p.Bias,
	} {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("non-finite value in %s matrix", name)
			}
		}
	}
	m, err := New(tree, p.NumUsers, p.Params, vecmath.NewRNG(0))
	if err != nil {
		return nil, err
	}
	if p.Precision > PrecisionInt8 {
		return nil, fmt.Errorf("unknown precision %d in file", p.Precision)
	}
	if len(p.Bias) == 0 {
		// files written before the bias extension: biases stay zero
		p.Bias = make([]float64, m.Bias.Rows()*m.Bias.Cols())
	}
	for name, pair := range map[string]struct {
		dst *vecmath.Matrix
		src []float64
	}{
		"user": {m.User, p.User},
		"node": {m.Node, p.Node},
		"next": {m.Next, p.Next},
		"bias": {m.Bias, p.Bias},
	} {
		if len(pair.src) != pair.dst.Rows()*pair.dst.Cols() {
			return nil, fmt.Errorf("%s matrix size %d does not match structure %d", name, len(pair.src), pair.dst.Rows()*pair.dst.Cols())
		}
		pair.dst.SetCompactData(pair.src)
	}
	return m, nil
}
