package extensor

import (
	"fmt"
	"testing"

	"drt/internal/accel"
	"drt/internal/gen"
	"drt/internal/sim"
	"drt/internal/tensor"
)

// exhaustiveSweep runs every accel.StaticShapes candidate to the end, each
// pinned through StaticShape, and returns the lowest (cycles, proposal
// index) result and shape together with the largest overflow count any
// candidate saw.
func exhaustiveSweep(t *testing.T, v Variant, w *accel.Workload, opt Options) (sim.Result, []int, int) {
	t.Helper()
	capA, capB, _ := opt.Partition.Split(opt.Machine.GlobalBuffer)
	var best sim.Result
	var bestShape []int
	overflows := 0
	for _, s := range accel.StaticShapes(w, capA, capB) {
		pinned := opt
		pinned.StaticShape = []int{s[0], s[1], s[2]}
		r := runVariant(t, v, w, pinned)
		overflows = max(overflows, r.Overflows)
		if bestShape == nil || r.Cycles() < best.Cycles() {
			best, bestShape = r, pinned.StaticShape
		}
	}
	return best, bestShape, overflows
}

// TestSweepMatchesExhaustiveArgmin pins the bounded sweep's exactness:
// its shape and whole Result equal the exhaustive argmin's at every worker
// count, on a diamond, an R-MAT, an A-overflow and a tall-skinny
// workload, for both S-U-C variants.
func TestSweepMatchesExhaustiveArgmin(t *testing.T) {
	rmat := testWorkload(t, 31)
	diamond, err := accel.NewWorkload("diamond", gen.Banded(512, 24, 4, 0.6, 3), gen.Banded(512, 24, 4, 0.6, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	// A dense band 96 coordinates wide: staticShapes rounds the I extent
	// of its elongated shapes up to one grid row, whose A tile then holds
	// more than capA.
	overflow, err := accel.NewWorkload("overflow", gen.Banded(512, 48, 1, 0.9, 5), gen.Banded(512, 48, 1, 0.9, 6), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 7's F·Fᵀ: a tall, narrow A over a short, wide B, so K spans 4
	// grid columns while I and J span 128.
	f := gen.TallSkinny(1024, 32, 3000, 7)
	tall, err := accel.NewWorkload("tallskinny", f, f.Transpose(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*accel.Workload{diamond, rmat, overflow, tall} {
		for _, v := range []Variant{Original, OP} {
			opt := DefaultOptions()
			opt.Machine = smallMachine()
			want, wantShape, overflows := exhaustiveSweep(t, v, w, opt)
			if w == overflow && v == OP && overflows == 0 {
				t.Errorf("%s: no candidate overflowed capA", w.Name)
			}
			for _, workers := range []int{1, 2, 4} {
				opt.Parallel = workers
				name := fmt.Sprintf("%s/%v/parallel=%d", w.Name, v, workers)
				got := runVariant(t, v, w, opt)
				if got != want {
					t.Errorf("%s: sweep result\n%+v\nwant exhaustive argmin\n%+v", name, got, want)
				}
				shape, err := BestStaticShape(v, w, opt)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(shape) != fmt.Sprint(wantShape) {
					t.Errorf("%s: sweep picked %v, exhaustive argmin %v", name, shape, wantShape)
				}
			}
		}
	}
}

// TestSweepTieKeepsLowerIndex forces a tie between a many-task shape and a
// one-task shape: every non-zero sits in one micro tile, so both schedules
// price that tile's one non-empty task identically and differ only in
// their empty tasks. The one-task shape completes first and sets the
// ceiling; the proposal-order first shape must still complete and win.
func TestSweepTieKeepsLowerIndex(t *testing.T) {
	co := tensor.NewCOO(64, 64)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if (i+j)%3 != 0 {
				co.Append(i, j, 1)
			}
		}
	}
	a := tensor.FromCOO(co)
	w, err := accel.NewWorkload("corner", a, a, 8)
	if err != nil {
		t.Fatal(err)
	}
	shapes := [][3]int{{1, 1, 1}, {8, 8, 8}}
	for _, v := range []Variant{Original, OP} {
		opt := DefaultOptions()
		opt.Machine = smallMachine()
		base := engineOptions(v, opt)
		var runs []sim.Result
		for _, s := range shapes {
			pinned := opt
			pinned.StaticShape = []int{s[0], s[1], s[2]}
			runs = append(runs, runVariant(t, v, w, pinned))
		}
		if runs[0].Cycles() != runs[1].Cycles() || runs[0].Tasks <= runs[1].Tasks {
			t.Fatalf("%v: no tie: cycles %v vs %v, tasks %d vs %d", v, runs[0].Cycles(), runs[1].Cycles(), runs[0].Tasks, runs[1].Tasks)
		}
		for _, workers := range []int{1, 2, 4} {
			got, shape, err := sweepShapes(w, base, shapes, workers)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(shape) != "[1 1 1]" || got != runs[0] {
				t.Errorf("%v/parallel=%d: tie went to %v (%d tasks), want [1 1 1] (%d tasks)", v, workers, shape, got.Tasks, runs[0].Tasks)
			}
		}
	}
}
