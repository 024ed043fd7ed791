package main

import (
	"math"
	"testing"
)

func TestSelfTime(t *testing.T) {
	sp := func(lo, hi float64) span { return span{StartUS: lo, EndUS: hi} }
	parent := sp(0, 100)
	for _, tc := range []struct {
		name string
		kids []span
		want float64
	}{
		{"no children", nil, 100},
		{"one child", []span{sp(10, 40)}, 70},
		{"disjoint children", []span{sp(10, 20), sp(50, 80)}, 60},
		// three shard handlers behind a router run at once: covered time
		// is their union, not their sum
		{"overlapping children", []span{sp(10, 60), sp(20, 70), sp(30, 50)}, 40},
		{"nested child counts once", []span{sp(10, 90), sp(30, 40)}, 20},
		{"unsorted input", []span{sp(50, 80), sp(10, 20)}, 60},
		{"child sticking out is clipped", []span{sp(-20, 30), sp(90, 150)}, 60},
		{"child outside", []span{sp(120, 150)}, 100},
	} {
		if got := selfTime(parent, tc.kids); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: selfTime = %g, want %g", tc.name, got, tc.want)
		}
	}
}
