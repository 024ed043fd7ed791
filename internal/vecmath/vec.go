// Package vecmath provides the small dense linear-algebra kernel used by
// the TF recommender: float64 vectors stored as plain slices, flat row-major
// matrices, a deterministic pseudo-random number generator, and top-k
// selection. Everything is stdlib-only and allocation-conscious: the SGD
// inner loop calls Dot and AddScaled millions of times per epoch.
package vecmath

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
// It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// DotBias returns bias + ⟨a, b⟩, the fused affinity kernel of the scoring
// index: folding the composed popularity bias into the accumulator keeps
// the per-item scoring loop branch-free (bias is simply zero for models
// trained without UseBias). It accumulates in the exact same two-way
// pairwise order as a MatVecBias row, so a score computed one item at a
// time is bitwise identical to the same score from a blocked sweep. It
// panics if the lengths differ.
func DotBias(a, b []float64, bias float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: DotBias length mismatch %d vs %d", len(a), len(b)))
	}
	s := bias
	i := 0
	for ; i+2 <= len(a); i += 2 {
		s += a[i]*b[i] + a[i+1]*b[i+1]
	}
	if i < len(a) {
		s += a[i] * b[i]
	}
	return s
}

// MatVecBias computes dst[r] = bias[r] + ⟨q, factors[r*k : (r+1)*k]⟩ for
// every row r of a contiguous row-major factor slab. It is the blocked
// matrix–vector sweep at the heart of index-backed scoring: rows are
// processed four at a time so the loads of q are shared across rows and
// the four accumulators pipeline independently. It panics when the slab
// size is not len(dst)*k or the bias length differs from dst.
func MatVecBias(factors []float64, k int, bias, q, dst []float64) {
	rows := len(dst)
	if len(factors) != rows*k {
		panic(fmt.Sprintf("vecmath: MatVecBias slab %d != rows %d * k %d", len(factors), rows, k))
	}
	if len(bias) != rows {
		panic(fmt.Sprintf("vecmath: MatVecBias bias length %d != rows %d", len(bias), rows))
	}
	if len(q) != k {
		panic(fmt.Sprintf("vecmath: MatVecBias query length %d != k %d", len(q), k))
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		// re-slicing each row to len(q) lets the compiler drop the bounds
		// checks inside the shared-q inner loop
		r0 := factors[r*k:][:len(q)]
		r1 := factors[(r+1)*k:][:len(q)]
		r2 := factors[(r+2)*k:][:len(q)]
		r3 := factors[(r+3)*k:][:len(q)]
		s0, s1, s2, s3 := bias[r], bias[r+1], bias[r+2], bias[r+3]
		i := 0
		for ; i+2 <= len(q); i += 2 {
			qa, qb := q[i], q[i+1]
			s0 += qa*r0[i] + qb*r0[i+1]
			s1 += qa*r1[i] + qb*r1[i+1]
			s2 += qa*r2[i] + qb*r2[i+1]
			s3 += qa*r3[i] + qb*r3[i+1]
		}
		if i < len(q) {
			qa := q[i]
			s0 += qa * r0[i]
			s1 += qa * r1[i]
			s2 += qa * r2[i]
			s3 += qa * r3[i]
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < rows; r++ {
		dst[r] = DotBias(q, factors[r*k:(r+1)*k], bias[r])
	}
}

// AddScaled sets dst = dst + alpha*src (the BLAS axpy operation).
// It panics if the lengths differ.
func AddScaled(dst []float64, alpha float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vecmath: AddScaled length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, sv := range src {
		dst[i] += alpha * sv
	}
}

// Add sets dst = dst + src.
func Add(dst, src []float64) {
	AddScaled(dst, 1, src)
}

// Sub sets dst = dst - src.
func Sub(dst, src []float64) {
	AddScaled(dst, -1, src)
}

// Scale multiplies every element of v by alpha in place.
func Scale(v []float64, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Zero sets every element of v to zero.
func Zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// Copy copies src into dst and panics if the lengths differ.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vecmath: Copy length mismatch %d vs %d", len(dst), len(src)))
	}
	copy(dst, src)
}

// Norm2 returns the Euclidean (L2) norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// SqNorm2 returns the squared Euclidean norm of v.
func SqNorm2(v []float64) float64 {
	return Dot(v, v)
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Dist2 length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Sigmoid returns 1/(1+e^-x), computed in a numerically stable form for
// large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// LogSigmoid returns ln(sigmoid(x)) without overflow for large negative x.
func LogSigmoid(x float64) float64 {
	if x >= 0 {
		return -math.Log1p(math.Exp(-x))
	}
	return x - math.Log1p(math.Exp(x))
}

// Matrix is a dense row-major matrix of float64. Rows are returned as
// sub-slices of the flat backing array, so mutating a row mutates the
// matrix. The zero value is an empty matrix; use NewMatrix to allocate.
//
// A matrix may carry a row stride larger than its column count
// (NewMatrixPadded): the pad keeps every row on its own cache lines so
// goroutines updating different rows concurrently never false-share. The
// SGD trainer's factor matrices are padded; padding is invisible through
// Row but visible as zero gaps through Data.
type Matrix struct {
	rows, cols, stride int
	data               []float64
}

// NewMatrix allocates a rows x cols matrix of zeros with compact rows.
func NewMatrix(rows, cols int) *Matrix {
	return newMatrixStride(rows, cols, cols)
}

// NewMatrixPadded allocates a rows x cols matrix whose row stride is
// rounded up to a 64-byte multiple, preventing false sharing between
// concurrent row writers.
func NewMatrixPadded(rows, cols int) *Matrix {
	return newMatrixStride(rows, cols, (cols+7)&^7)
}

func newMatrixStride(rows, cols, stride int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vecmath: NewMatrix negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, stride: stride, data: make([]float64, rows*stride)}
}

// MatrixFromCompact wraps an externally owned compact row-major slice as a
// rows x cols matrix view without copying. The caller keeps ownership of
// the backing memory (it may be a mmap'd file section); mutating the
// matrix mutates that memory. It panics if the slice length is not
// rows*cols.
func MatrixFromCompact(rows, cols int, data []float64) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vecmath: MatrixFromCompact negative dimension %dx%d", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("vecmath: MatrixFromCompact length %d, want %d (%dx%d)", len(data), rows*cols, rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, stride: cols, data: data}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Row returns row i as a mutable slice view of exactly Cols elements
// (padding, if any, is excluded and capacity-clipped).
func (m *Matrix) Row(i int) []float64 {
	start := i * m.stride
	return m.data[start : start+m.cols : start+m.cols]
}

// Data returns the flat backing slice, including any row padding.
func (m *Matrix) Data() []float64 { return m.data }

// Padded reports whether rows carry alignment padding.
func (m *Matrix) Padded() bool { return m.stride != m.cols }

// Clone returns a deep copy of the matrix (same stride).
func (m *Matrix) Clone() *Matrix {
	c := newMatrixStride(m.rows, m.cols, m.stride)
	copy(c.data, m.data)
	return c
}

// CopyRowsFrom copies the row contents (not padding) of src, which must
// have the same rows x cols shape; strides may differ. Model
// serialization uses it to move between compact and padded layouts.
func (m *Matrix) CopyRowsFrom(src *Matrix) {
	if m.rows != src.rows || m.cols != src.cols {
		panic("vecmath: CopyRowsFrom shape mismatch")
	}
	for i := 0; i < m.rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// CompactData returns the row-major contents without padding; when the
// matrix is compact this is the backing slice itself.
func (m *Matrix) CompactData() []float64 {
	if !m.Padded() {
		return m.data
	}
	out := make([]float64, m.rows*m.cols)
	for i := 0; i < m.rows; i++ {
		copy(out[i*m.cols:(i+1)*m.cols], m.Row(i))
	}
	return out
}

// SetCompactData fills the matrix's rows from a compact row-major slice.
func (m *Matrix) SetCompactData(src []float64) {
	if len(src) != m.rows*m.cols {
		panic(fmt.Sprintf("vecmath: SetCompactData length %d, want %d", len(src), m.rows*m.cols))
	}
	for i := 0; i < m.rows; i++ {
		copy(m.Row(i), src[i*m.cols:(i+1)*m.cols])
	}
}

// FillGaussian fills the matrix rows with independent N(0, stddev^2) draws
// from rng; padding stays zero and the draw sequence is independent of the
// stride.
func (m *Matrix) FillGaussian(rng *RNG, stddev float64) {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for k := range row {
			row[k] = rng.NormFloat64() * stddev
		}
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference between m
// and other (row contents only). It panics on shape mismatch.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.rows != other.rows || m.cols != other.cols {
		panic("vecmath: MaxAbsDiff shape mismatch")
	}
	var max float64
	for i := 0; i < m.rows; i++ {
		ra, rb := m.Row(i), other.Row(i)
		for k := range ra {
			d := math.Abs(ra[k] - rb[k])
			if d > max {
				max = d
			}
		}
	}
	return max
}

// Downconvert32 fills dst with src rounded to float32 (round to nearest
// even, the hardware conversion). The model writer uses it for the file's
// float32 sections. It panics if the lengths differ.
func Downconvert32(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panicLen("Downconvert32", len(dst), len(src))
	}
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// MaxAbs returns the largest absolute value in v (0 for an empty slice).
// The scoring index uses it to bound slab magnitudes for the certified
// int8 error bound and the prune bound.
func MaxAbs(v []float64) float64 {
	var max float64
	for _, x := range v {
		if x < 0 {
			x = -x
		}
		if x > max {
			max = x
		}
	}
	return max
}
