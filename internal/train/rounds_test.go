package train

import (
	"testing"

	"repro/internal/bpr"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// testEngine builds a round engine over one shared matrix (in every
// overlay slot), without goroutines, for driving merges by hand.
func testEngine(base *vecmath.Matrix, workers int) *roundEngine {
	e := &roundEngine{}
	for range workers {
		ov := newOverlay(base)
		e.workers = append(e.workers, &worker{
			shared:  [3]*overlay{ov, newOverlay(vecmath.NewMatrix(1, 1)), newOverlay(vecmath.NewMatrix(1, 1))},
			scratch: make([]float64, base.Cols()),
		})
	}
	return e
}

// mergeAll runs every owner's merge, as the workers do between barriers.
func (e *roundEngine) mergeAll() {
	for owner := range e.workers {
		e.merge(owner)
	}
}

func TestOverlayMatchesPlainSequentially(t *testing.T) {
	rng := vecmath.NewRNG(1)
	mp := vecmath.NewMatrix(10, 4)
	mp.FillGaussian(rng, 1)
	mo := mp.Clone()
	p := bpr.Plain{M: mp}
	e := testEngine(mo, 1)
	o := e.workers[0].shared[0]
	vec := []float64{0.1, -0.2, 0.3, -0.4}
	got, want := make([]float64, 4), make([]float64, 4)
	for i := 0; i < 100; i++ {
		row := (i * 7) % 10
		p.ApplyStep(row, 0.99, 0.05, vec)
		o.ApplyStep(row, 0.99, 0.05, vec)
		p.ReadInto(row, want)
		o.ReadInto(row, got)
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("step %d: overlay reads %v, plain %v", i, got, want)
			}
		}
	}
	e.mergeAll()
	if d := mp.MaxAbsDiff(mo); d != 0 {
		t.Fatalf("merged overlay differs from plain by %v", d)
	}
}

func TestOverlayUntouchedRowsReadShared(t *testing.T) {
	m := vecmath.NewMatrix(4, 2)
	copy(m.Row(2), []float64{3, 4})
	o := newOverlay(m)
	o.ApplyStep(1, 1, 1, []float64{1, 1})
	dst := make([]float64, 2)
	o.ReadInto(2, dst)
	if dst[0] != 3 || dst[1] != 4 || len(o.touched) != 1 {
		t.Fatalf("untouched row read %v, touched %v", dst, o.touched)
	}
}

func TestOverlayDefersWritesUntilMerge(t *testing.T) {
	m := vecmath.NewMatrix(4, 2)
	e := testEngine(m, 1)
	o := e.workers[0].shared[0]
	o.ApplyStep(3, 1, 1, []float64{1, 2})
	o.ApplyStep(3, 1, 1, []float64{1, 2})
	if m.Row(3)[0] != 0 || m.Row(3)[1] != 0 {
		t.Fatalf("shared row written before the merge: %v", m.Row(3))
	}
	dst := make([]float64, 2)
	o.ReadInto(3, dst)
	if dst[0] != 2 || dst[1] != 4 {
		t.Fatalf("overlay reads %v, want [2 4]", dst)
	}
	e.mergeAll()
	if m.Row(3)[0] != 2 || m.Row(3)[1] != 4 {
		t.Fatalf("merged row = %v, want [2 4]", m.Row(3))
	}
}

func TestMergeConcurrentUpdatesAllLand(t *testing.T) {
	const workers = 3
	m := vecmath.NewMatrix(5, 2)
	copy(m.Row(4), []float64{10, 20})
	e := testEngine(m, workers)
	for w, wk := range e.workers {
		// every worker adds w+1 to row 4; worker w also owns a private row
		wk.shared[0].ApplyStep(4, 1, float64(w+1), []float64{1, 1})
		wk.shared[0].ApplyStep(w, 1, 1, []float64{float64(w), 0})
	}
	e.mergeAll()
	if m.Row(4)[0] != 16 || m.Row(4)[1] != 26 {
		t.Fatalf("shared row = %v, want old + Σ deltas = [16 26]", m.Row(4))
	}
	for w := 0; w < workers; w++ {
		if m.Row(w)[0] != float64(w) {
			t.Fatalf("row %d = %v, want its one writer's value", w, m.Row(w))
		}
	}
}

// Two workers each decay a shared row by half and add 1: the decay must
// compose (8·¼ + 1 + 1 = 4), not apply twice to the whole row as the
// plain delta sum does (8 + (5−8) + (5−8) = 2).
func TestMergeComposesDecay(t *testing.T) {
	m := vecmath.NewMatrix(2, 1)
	m.Row(0)[0] = 8
	e := testEngine(m, 2)
	for _, wk := range e.workers {
		wk.shared[0].ApplyStep(0, 0.5, 1, []float64{1})
	}
	e.mergeAll()
	if got := m.Row(0)[0]; got != 4 {
		t.Fatalf("merged row = %v, want 4", got)
	}
}

func TestMergeSingleWriterIsExactCopy(t *testing.T) {
	m := vecmath.NewMatrix(6, 3)
	m.FillGaussian(vecmath.NewRNG(3), 1)
	e := testEngine(m, 2)
	o := e.workers[1].shared[0]
	vec := []float64{0.3, 0.1, -0.7}
	for i := 0; i < 20; i++ {
		o.ApplyStep(5, 0.9731, 0.0137, vec)
	}
	want := append([]float64(nil), o.local(5)...)
	e.mergeAll()
	for k, v := range m.Row(5) {
		if v != want[k] {
			t.Fatalf("merged %v, want the writer's value %v exactly", m.Row(5), want)
		}
	}
}

func TestMergePublishesEverything(t *testing.T) {
	m := vecmath.NewMatrix(64, 2)
	e := testEngine(m, 4)
	for w, wk := range e.workers {
		for row := w; row < 64; row += 3 {
			wk.shared[0].ApplyStep(row, 1, 1, []float64{1, 0})
		}
	}
	e.mergeAll()
	for row := 0; row < 64; row++ {
		want := 0.0
		for w := range e.workers {
			if row >= w && (row-w)%3 == 0 {
				want++
			}
		}
		if m.Row(row)[0] != want {
			t.Fatalf("row %d = %v, want %v", row, m.Row(row)[0], want)
		}
	}
	o := e.workers[0].shared[0]
	capacity := cap(o.arena)
	o.reset()
	if len(o.touched) != 0 || o.local(0) != nil || cap(o.arena) != capacity {
		t.Fatal("reset must forget the round's rows and keep the arena")
	}
}

func TestPartitionCutsAtUserBoundaries(t *testing.T) {
	var events []dataset.Event
	for u, n := range []int{5, 1, 1, 7, 2, 2, 2} {
		for range n {
			events = append(events, dataset.Event{User: int32(u)})
		}
	}
	for _, n := range []int{1, 2, 3, 4, 7, 10} {
		parts := partition(events, n)
		if len(parts) != n || len(parts[0]) == 0 {
			t.Fatalf("n=%d: %d parts, first %d events", n, len(parts), len(parts[0]))
		}
		total, last := 0, int32(-1)
		for _, p := range parts {
			total += len(p)
			if len(p) > 0 {
				if p[0].User <= last {
					t.Fatalf("n=%d: user %d split across parts", n, p[0].User)
				}
				last = p[len(p)-1].User
			}
		}
		if total != len(events) {
			t.Fatalf("n=%d: parts hold %d of %d events", n, total, len(events))
		}
	}
}
