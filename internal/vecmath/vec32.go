package vecmath

import "fmt"

// float32 counterparts of the scoring kernels. The serving data path
// sweeps compact float32 slabs (half the bytes of the float64 slabs, so
// half the memory bandwidth per catalog scan) and recovers exactness by
// rescoring a small candidate set with the float64 kernels; see
// internal/infer. Training stays entirely on the float64 kernels.
//
// Every f32 kernel accumulates in one fixed, lane-friendly order — the
// 8-lane tree documented on DotBias32 — so a score is bitwise identical
// whether computed item-at-a-time, in a blocked sweep, by the pure-Go
// reference, or by the AVX2/NEON assembly bodies that vectorize the
// 8-lane head verbatim (one rounded multiply and one rounded add per
// element; see kernels.go for the dispatch rules). Products are forced through an explicit float32
// conversion so no compiler may fuse them into an FMA: the reference
// kernels therefore produce the same bits on every architecture, and the
// asm arms are checked against them by the differential suite.

// Dot32 returns the inner product of a and b, accumulated sequentially
// in float32. It is not order-pinned to the sweep kernels — nothing
// compares its result bitwise against theirs — and panics if the lengths
// differ.
func Dot32(a, b []float32) float32 {
	if len(a) != len(b) {
		panicLen("Dot32", len(a), len(b))
	}
	var s float32
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// DotBias32 returns bias + ⟨a, b⟩ accumulated in the fixed 8-lane tree
// order every f32 kernel shares:
//
//	n8 := len(a) &^ 7
//	l[j] += fl32(a[i+j] · b[i+j])   for i = 0, 8, …, n8−8 and j = 0..7
//	t := ((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))
//	s := bias + t                    (skipped entirely when n8 == 0)
//	s += fl32(a[i] · b[i])           for i = n8 .. len(a)−1
//
// with every multiply and add individually rounded (fl32 is an explicit
// float32 conversion, which forbids FMA fusion). The eight independent
// lanes are what the vector units want — AVX2 holds them in one YMM
// register, NEON in two quadword registers — while the fixed reduction
// tree keeps the result one specific bit pattern that the blocked sweep,
// the per-row gather and both dispatch arms all reproduce exactly. It
// panics if the lengths differ.
func DotBias32(a, b []float32, bias float32) float32 {
	if len(a) != len(b) {
		panicLen("DotBias32", len(a), len(b))
	}
	return dotBias32(a, b, bias)
}

// dotBias32 is DotBias32 without the length check, for kernels that
// validated shapes up front.
func dotBias32(a, b []float32, bias float32) float32 {
	s := bias
	i := 0
	if n8 := len(a) &^ 7; n8 > 0 {
		if simdActive {
			s += dotLanes32SIMD(&a[0], &b[0], n8)
		} else {
			s += dotLanes32Ref(a, b, n8)
		}
		i = n8
	}
	for ; i < len(a); i++ {
		s += float32(a[i] * b[i])
	}
	return s
}

// DotBias32Ref is the pure-Go reference implementation of DotBias32,
// exported so benchmarks can pit the dispatch arms against each other on
// any machine. Its result is bitwise identical to DotBias32's for every
// input. It panics if the lengths differ.
func DotBias32Ref(a, b []float32, bias float32) float32 {
	if len(a) != len(b) {
		panicLen("DotBias32Ref", len(a), len(b))
	}
	s := bias
	i := 0
	if n8 := len(a) &^ 7; n8 > 0 {
		s += dotLanes32Ref(a, b, n8)
		i = n8
	}
	for ; i < len(a); i++ {
		s += float32(a[i] * b[i])
	}
	return s
}

// dotLanes32Ref is the pure-Go reference for the 8-lane head: the
// semantic definition the asm kernels must match bit for bit. n must be
// a positive multiple of 8, n ≤ len(a) = len(b).
func dotLanes32Ref(a, b []float32, n int) float32 {
	var l0, l1, l2, l3, l4, l5, l6, l7 float32
	for i := 0; i < n; i += 8 {
		x := a[i : i+8 : i+8]
		y := b[i : i+8 : i+8]
		l0 += float32(x[0] * y[0])
		l1 += float32(x[1] * y[1])
		l2 += float32(x[2] * y[2])
		l3 += float32(x[3] * y[3])
		l4 += float32(x[4] * y[4])
		l5 += float32(x[5] * y[5])
		l6 += float32(x[6] * y[6])
		l7 += float32(x[7] * y[7])
	}
	return ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
}

// MatVecBias32 computes dst[r] = bias[r] + ⟨q, factors[r*k : (r+1)*k]⟩
// over a contiguous row-major float32 slab — the compact-slab twin of
// MatVecBias. Rows are processed four at a time with the query loads
// shared across the block, each row accumulating in DotBias32's fixed
// 8-lane tree, so blocked and row-at-a-time scores stay bitwise
// identical. It panics when the slab size is not len(dst)*k or the bias
// length differs from dst.
func MatVecBias32(factors []float32, k int, bias, q, dst []float32) {
	rows := len(dst)
	if len(factors) != rows*k {
		panicSlab("MatVecBias32", len(factors), rows, k)
	}
	if len(bias) != rows {
		panicLen("MatVecBias32 bias", len(bias), rows)
	}
	if len(q) != k {
		panicQueryLen("MatVecBias32", len(q), k)
	}
	n8 := k &^ 7
	r := 0
	if simdActive && n8 > 0 {
		var out [4]float32
		for ; r+4 <= rows; r += 4 {
			dot4Lanes32SIMD(&factors[r*k], k, &q[0], n8, &out)
			s0 := bias[r] + out[0]
			s1 := bias[r+1] + out[1]
			s2 := bias[r+2] + out[2]
			s3 := bias[r+3] + out[3]
			if n8 < k {
				r0 := factors[r*k:][:k]
				r1 := factors[(r+1)*k:][:k]
				r2 := factors[(r+2)*k:][:k]
				r3 := factors[(r+3)*k:][:k]
				for i := n8; i < k; i++ {
					qa := q[i]
					s0 += float32(qa * r0[i])
					s1 += float32(qa * r1[i])
					s2 += float32(qa * r2[i])
					s3 += float32(qa * r3[i])
				}
			}
			dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
		}
	}
	for ; r < rows; r++ {
		dst[r] = dotBias32(q, factors[r*k:(r+1)*k], bias[r])
	}
}

// Downconvert32 fills dst with src rounded to float32 (round to nearest
// even, the hardware conversion). It panics if the lengths differ.
func Downconvert32(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panicLen("Downconvert32", len(dst), len(src))
	}
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// Matrix32 is a dense compact row-major float32 matrix — the storage of
// the scoring index's compact slabs. Unlike Matrix it carries no row
// padding: slabs are immutable after construction and consumed by
// streaming sweeps, where padding would waste exactly the bandwidth the
// type exists to save.
type Matrix32 struct {
	rows, cols int
	data       []float32
}

// NewMatrix32 allocates a rows x cols float32 matrix of zeros.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vecmath: NewMatrix32 negative dimension %dx%d", rows, cols))
	}
	return &Matrix32{rows: rows, cols: cols, data: make([]float32, rows*cols)}
}

// Matrix32FromData wraps an externally owned compact row-major slice as a
// rows x cols matrix view without copying (the mmap'd-slab counterpart of
// NewMatrix32). It panics if the slice length is not rows*cols.
func Matrix32FromData(rows, cols int, data []float32) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vecmath: Matrix32FromData negative dimension %dx%d", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("vecmath: Matrix32FromData length %d, want %d (%dx%d)", len(data), rows*cols, rows, cols))
	}
	return &Matrix32{rows: rows, cols: cols, data: data}
}

// Rows returns the number of rows.
func (m *Matrix32) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix32) Cols() int { return m.cols }

// Row returns row i as a capacity-clipped slice view.
func (m *Matrix32) Row(i int) []float32 {
	start := i * m.cols
	return m.data[start : start+m.cols : start+m.cols]
}

// Data returns the flat row-major backing slice.
func (m *Matrix32) Data() []float32 { return m.data }

// SetFrom rounds a compact row-major float64 slice into the matrix. It
// panics if the length is not Rows*Cols — checked here explicitly so the
// message names the matrix shape, not Downconvert32's view of it.
func (m *Matrix32) SetFrom(src []float64) {
	if len(src) != m.rows*m.cols {
		panic(fmt.Sprintf("vecmath: Matrix32.SetFrom length %d, want %d (%dx%d)", len(src), m.rows*m.cols, m.rows, m.cols))
	}
	Downconvert32(m.data, src)
}

// MaxAbs returns the largest absolute value in v (0 for an empty slice).
// The scoring index uses it to bound slab magnitudes for the certified
// float32 error bound.
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
