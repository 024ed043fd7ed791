package model

// Entry points kept for callers built against older releases. Each is a
// thin shim over the current API; new code should not call them.

// ItemScoresRange32Into scores the contiguous item range [lo, hi) in
// float32 arithmetic into dst[:hi-lo]: each score starts from the
// float32-rounded bias and adds the float32 products of q32 with the
// rounded factors, in index order.
//
// Deprecated: the float32 tier is retired; use ItemScoresRangeInto or
// ItemScoresRangeI8Into.
func (ix *ScoringIndex) ItemScoresRange32Into(q32 []float32, lo, hi int, dst []float32) {
	k := ix.k
	for i := lo; i < hi; i++ {
		row := ix.itemFactors[i*k : (i+1)*k]
		s := float32(ix.itemBias[i])
		for j, v := range row {
			s += float32(v) * q32[j]
		}
		dst[i-lo] = s
	}
}
