package vecmath

import (
	"fmt"
	"math"
)

// int8 quantized counterparts of the scoring kernels — the reduced
// serving tier below the float64 slabs. Each factor row is quantized independently with a
// per-row affine code: codes c ∈ [−127, 127] reconstruct as
// scale·c + offset, where offset is the row's value midpoint and scale
// spans its value range in 254 steps. The query is quantized once per
// request with a symmetric code (offset 0). A row score then decomposes
// as
//
//	score ≈ (qscale·scale_r)·⟨u, c_r⟩ + offset_r·Σq + bias_r
//
// where ⟨u, c_r⟩ is a pure int8×int8 dot accumulated in int32 — EXACT
// integer arithmetic, so the dot is identical in any accumulation order
// and a blocked multi-row sweep is trivially bitwise equal to the
// row-at-a-time kernel; only the short float64 combine above
// rounds, and every kernel shares it statement by statement. The
// quantization error is measured (not estimated) during encoding and
// surfaced per slab, so the serving pipeline can certify an exact-rescore
// boundary; see model.ScoringIndex's ItemErrBoundI8.
//
// Everything here assumes finite inputs; model.Load rejects non-finite
// factor payloads so hostile NaN/Inf rows die at load time, not in a
// scoring loop.

// i8Levels is the span of the affine code: hi−lo maps across 254 steps so
// codes stay within [−127, 127] (the symmetric int8 range; −128 is
// unused, keeping negation safe).
const i8Levels = 254

// QuantizeRow encodes one factor row with the per-row affine code and
// returns the code parameters plus the row's measured maximum
// reconstruction error max_j |src[j] − (scale·dst[j] + offset)|. A
// constant row gets scale 0 and reconstructs exactly through its offset.
// It panics if the lengths differ.
func QuantizeRow(dst []int8, src []float64) (scale, offset, maxErr float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vecmath: QuantizeRow length mismatch %d vs %d", len(dst), len(src)))
	}
	if len(src) == 0 {
		return 0, 0, 0
	}
	lo, hi := src[0], src[0]
	for _, v := range src[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// midpoint as lo + half-range (not (lo+hi)/2) so huge-magnitude rows
	// cannot overflow the intermediate sum
	offset = lo + (hi-lo)/2
	scale = (hi - lo) / i8Levels
	if scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		// constant row (exact through offset), or a degenerate row whose
		// range does not quantize; codes are zero either way and the
		// measured error reports the truth
		for i := range dst {
			dst[i] = 0
		}
		for _, v := range src {
			e := math.Abs(v - offset)
			if e > maxErr || math.IsNaN(e) {
				maxErr = e
			}
		}
		if math.IsNaN(maxErr) {
			maxErr = math.Inf(1)
		}
		scale = 0
		return scale, offset, maxErr
	}
	for i, v := range src {
		c := math.Round((v - offset) / scale)
		switch {
		case c >= 127:
			c = 127
		case c <= -127:
			c = -127
		case math.IsNaN(c):
			c = 0
		}
		dst[i] = int8(c)
		// measure against the same reconstruction expression the bound
		// advertises: fl(scale·code + offset)
		e := math.Abs(v - (scale*float64(dst[i]) + offset))
		if e > maxErr {
			maxErr = e
		}
	}
	return scale, offset, maxErr
}

// QuantizeQuery encodes the query with a symmetric code (codes reconstruct
// as qscale·u[j], no offset) and returns the code step, the exact float64
// sum Σ q[j] the combine needs for the offset term, and the measured total
// absolute encoding error Σ_j |q[j] − qscale·u[j]| the certificate charges
// against the item scales. A zero (or empty) query encodes as all-zero
// codes with qscale 0, exactly. It panics if the lengths differ.
func QuantizeQuery(dst []int8, q []float64) (qscale, sumQ, sumAbsErr float64) {
	if len(dst) != len(q) {
		panic(fmt.Sprintf("vecmath: QuantizeQuery length mismatch %d vs %d", len(dst), len(q)))
	}
	maxAbs := MaxAbs(q)
	if maxAbs == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0, 0, 0
	}
	qscale = maxAbs / 127
	for i, v := range q {
		c := math.Round(v / qscale)
		switch {
		case c >= 127:
			c = 127
		case c <= -127:
			c = -127
		case math.IsNaN(c):
			c = 0
		}
		dst[i] = int8(c)
		sumQ += v
		sumAbsErr += math.Abs(v - qscale*float64(dst[i]))
	}
	if math.IsNaN(sumAbsErr) || math.IsInf(sumAbsErr, 0) {
		sumAbsErr = math.Inf(1)
	}
	return qscale, sumQ, sumAbsErr
}

// DotI8 returns ⟨a, b⟩ accumulated in int32 — exact for any length up to
// MaxDotLenI8, so unlike the float kernels the accumulation order is
// irrelevant and every sweep shape — including the AVX2 assembly arm,
// whose int32 lanes wrap mod 2³² exactly like the reference's
// accumulator — produces the identical integer. It panics if the lengths
// differ.
func DotI8(a, b []int8) int32 {
	if len(a) != len(b) {
		panicLen("DotI8", len(a), len(b))
	}
	if simdActive {
		if n8 := len(a) &^ 7; n8 > 0 {
			s := dotI8SIMD(&a[0], &b[0], n8)
			for i := n8; i < len(a); i++ {
				s += int32(a[i]) * int32(b[i])
			}
			return s
		}
	}
	return dotI8Ref(a, b)
}

// DotI8Ref is the pure-Go reference implementation of DotI8, exported so
// benchmarks can pit the dispatch arms against each other on any machine.
// Its result is bitwise identical to DotI8's for every input. It panics
// if the lengths differ.
func DotI8Ref(a, b []int8) int32 {
	if len(a) != len(b) {
		panicLen("DotI8Ref", len(a), len(b))
	}
	return dotI8Ref(a, b)
}

func dotI8Ref(a, b []int8) int32 {
	var s int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += int32(a[i])*int32(b[i]) + int32(a[i+1])*int32(b[i+1]) +
			int32(a[i+2])*int32(b[i+2]) + int32(a[i+3])*int32(b[i+3])
	}
	for ; i < len(a); i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// MaxDotLenI8 is the longest vector DotI8 is exact for: every partial sum
// is bounded by len·127², which must stay inside int32. Factor
// dimensionalities are orders of magnitude smaller; the scoring index
// refuses to certify int8 results past this bound rather than risk silent
// wraparound.
const MaxDotLenI8 = (1<<31 - 1) / (127 * 127)

// DotBiasI8 is the fused row kernel of the int8 tier: the exact integer
// dot followed by the short float64 combine
//
//	(qscale·scale)·dot + offset·Σq + bias
//
// evaluated in single-rounded steps. SweepBiasI8Above's fused body
// replicates the combine statement for statement, so a score is bitwise
// identical whether computed row-at-a-time or in the blocked sweep. It
// panics if the lengths differ.
func DotBiasI8(u, row []int8, scale, offset, bias, qscale, sumQ float64) float64 {
	return combineI8(DotI8(u, row), scale, offset, bias, qscale, sumQ)
}

// combineI8 is the shared float64 tail of every int8 kernel: the
// single-rounded statement sequence
//
//	m = qscale·scale;  a = m·d;  c = offset·Σq;  s = a + c;  s + bias
//
// that pins every int8 score to one bit pattern across the row-at-a-time
// and fused kernels.
func combineI8(d int32, scale, offset, bias, qscale, sumQ float64) float64 {
	// one rounding per step: the float64 conversions forbid the compiler
	// from fusing a product into the following add (the spec allows
	// fusion otherwise, and arm64 and GOAMD64=v3 builds do it), so every
	// build rounds exactly like the unfused vector combine of the fused
	// sweep kernel
	m := float64(qscale * scale)
	a := float64(m * float64(d))
	c := float64(offset * sumQ)
	s := a + c
	return s + bias
}

// SweepBiasI8Above is the fused threshold-aware sweep of the int8 tier. It
// scores every row of a contiguous row-major int8 slab exactly as
// DotBiasI8 does — the exact integer dot, then the shared combine — and
// keeps only the rows whose score s satisfies !(s < tau): rows[:n]
// receives their slab-relative indices in ascending order, scores[:n]
// their scores, and n is returned. The predicate is the negation of a
// full top-k collector's "strictly below the k-th score" rejection, so
// ties with tau and NaN scores survive exactly as they would be offered
// to the collector; tau = −Inf keeps every row. rows and scores must hold
// one entry per slab row (every row may survive). It panics on any shape
// mismatch.
//
// On AVX2 hosts with k ≥ 8 the whole 4-row block — dot over all of k
// including the k%8 tail, the vector combine (separate multiplies and
// adds, never FMA, so each lane rounds exactly like combineI8), the
// compare against the broadcast tau and the emission of surviving lanes —
// runs in one assembly loop; everywhere else a per-row DotBiasI8 loop
// scores and filters the slab.
func SweepBiasI8Above(factors []int8, k int, scale, offset, bias []float64, u []int8, qscale, sumQ, tau float64, rows []int32, scores []float64) int {
	n := len(bias)
	if len(factors) != n*k {
		panicSlab("SweepBiasI8Above", len(factors), n, k)
	}
	if len(scale) != n || len(offset) != n {
		panic(fmt.Sprintf("vecmath: SweepBiasI8Above param lengths %d/%d != rows %d", len(scale), len(offset), n))
	}
	if len(u) != k {
		panicQueryLen("SweepBiasI8Above", len(u), k)
	}
	if len(rows) < n || len(scores) < n || n > math.MaxInt32 {
		panic(fmt.Sprintf("vecmath: SweepBiasI8Above output lengths %d/%d below rows %d", len(rows), len(scores), n))
	}
	if simdActive && k >= 8 {
		return sweepBiasI8AboveFused(factors, k, scale, offset, bias, u, qscale, sumQ, tau, rows, scores)
	}
	return sweepBiasI8AboveRows(factors, k, scale, offset, bias, u, qscale, sumQ, tau, 0, 0, rows, scores)
}

// sweepBiasI8AboveFused is SweepBiasI8Above's AVX2 body: the assembly
// loop over every whole 4-row block, then the per-row loop over the n%4
// tail rows. The caller has checked the shapes, SIMD and k ≥ 8.
func sweepBiasI8AboveFused(factors []int8, k int, scale, offset, bias []float64, u []int8, qscale, sumQ, tau float64, rows []int32, scores []float64) int {
	n4, c := len(bias)&^3, 0
	if n4 > 0 {
		// the k%8 tail is one overlapping 8-byte load ending at the row's
		// last code, dotted against the query tail shifted into the top
		// lanes with zeros below it — the overlap re-reads codes the head
		// already counted, and the zero lanes cancel them exactly
		n8, tail := k&^7, -1
		var ut [8]int8
		if n8 < k {
			tail = k - 8
			copy(ut[8-(k-n8):], u[n8:])
		}
		c = sweep4I8AboveSIMD(&factors[0], k, &u[0], k&^15, n8, tail, &ut[0],
			&scale[0], &offset[0], &bias[0], qscale, sumQ, tau, n4, &rows[0], &scores[0])
	}
	return sweepBiasI8AboveRows(factors, k, scale, offset, bias, u, qscale, sumQ, tau, n4, c, rows, scores)
}

// sweepBiasI8AboveRows is SweepBiasI8Above's per-row loop from row r on,
// appending survivors after the c already emitted; it returns the new
// count. It is the whole sweep where the fused body does not run, and the
// fused body's n%4 tail.
func sweepBiasI8AboveRows(factors []int8, k int, scale, offset, bias []float64, u []int8, qscale, sumQ, tau float64, r, c int, rows []int32, scores []float64) int {
	for ; r < len(bias); r++ {
		s := DotBiasI8(u, factors[r*k:(r+1)*k], scale[r], offset[r], bias[r], qscale, sumQ)
		if !(s < tau) {
			rows[c], scores[c] = int32(r), s
			c++
		}
	}
	return c
}

// sweepBiasI8AboveRef is the row-at-a-time pure-Go reference of
// SweepBiasI8Above: the reference integer dot, the shared combine, the
// same predicate. The differential suite pins every dispatch arm to it.
func sweepBiasI8AboveRef(factors []int8, k int, scale, offset, bias []float64, u []int8, qscale, sumQ, tau float64, rows []int32, scores []float64) int {
	c := 0
	for r := range bias {
		s := combineI8(dotI8Ref(u, factors[r*k:(r+1)*k]), scale[r], offset[r], bias[r], qscale, sumQ)
		if !(s < tau) {
			rows[c], scores[c] = int32(r), s
			c++
		}
	}
	return c
}

// MatrixI8 is a dense compact row-major int8 matrix paired with nothing:
// the per-row code parameters live beside it in the scoring index. Unlike
// Matrix it carries no row padding — slabs are immutable after
// construction and consumed by streaming sweeps, where padding would waste
// the bandwidth the type exists to save.
type MatrixI8 struct {
	rows, cols int
	data       []int8
}

// NewMatrixI8 allocates a rows x cols int8 matrix of zeros.
func NewMatrixI8(rows, cols int) *MatrixI8 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vecmath: NewMatrixI8 negative dimension %dx%d", rows, cols))
	}
	return &MatrixI8{rows: rows, cols: cols, data: make([]int8, rows*cols)}
}

// MatrixI8FromData wraps an externally owned compact row-major slice as a
// rows x cols matrix view without copying (the mmap'd-slab counterpart of
// NewMatrixI8). It panics if the slice length is not rows*cols.
func MatrixI8FromData(rows, cols int, data []int8) *MatrixI8 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vecmath: MatrixI8FromData negative dimension %dx%d", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("vecmath: MatrixI8FromData length %d, want %d (%dx%d)", len(data), rows*cols, rows, cols))
	}
	return &MatrixI8{rows: rows, cols: cols, data: data}
}

// Rows returns the number of rows.
func (m *MatrixI8) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *MatrixI8) Cols() int { return m.cols }

// Row returns row i as a capacity-clipped slice view.
func (m *MatrixI8) Row(i int) []int8 {
	start := i * m.cols
	return m.data[start : start+m.cols : start+m.cols]
}

// Data returns the flat row-major backing slice.
func (m *MatrixI8) Data() []int8 { return m.data }

// QuantizeFrom encodes a compact row-major float64 slab into the matrix
// row by row, writing each row's code parameters into scale and offset.
// It returns the slab-wide aggregates the certified error bound needs:
// the largest measured per-row reconstruction error, the largest scale,
// and the largest |offset|. It panics if src is not Rows*Cols or the
// parameter slices are not Rows long.
func (m *MatrixI8) QuantizeFrom(src []float64, scale, offset []float64) (maxErr, maxScale, maxAbsOffset float64) {
	if len(src) != m.rows*m.cols {
		panic(fmt.Sprintf("vecmath: MatrixI8.QuantizeFrom length %d, want %d (%dx%d)", len(src), m.rows*m.cols, m.rows, m.cols))
	}
	if len(scale) != m.rows || len(offset) != m.rows {
		panic(fmt.Sprintf("vecmath: MatrixI8.QuantizeFrom param lengths %d/%d, want %d rows", len(scale), len(offset), m.rows))
	}
	for r := 0; r < m.rows; r++ {
		s, o, e := QuantizeRow(m.Row(r), src[r*m.cols:(r+1)*m.cols])
		scale[r], offset[r] = s, o
		if e > maxErr {
			maxErr = e
		}
		if s > maxScale {
			maxScale = s
		}
		if ao := math.Abs(o); ao > maxAbsOffset {
			maxAbsOffset = ao
		}
	}
	return maxErr, maxScale, maxAbsOffset
}
