package core

import (
	"fmt"
	"reflect"
	"testing"

	"drt/internal/gen"
)

// withoutReplay runs f with every sweep-log lookup forced to miss, so
// each operand step runs Algorithm 1's loadTile/growDims afresh.
func withoutReplay(f func()) {
	stepLogOff = true
	defer func() { stepLogOff = false }()
	f()
}

// drainWindows walks e over each window in turn (nil: e's own window
// only) and returns every task, cloned, in order.
func drainWindows(t *testing.T, e *Enumerator, windows [][]Range) []Task {
	t.Helper()
	if windows == nil {
		out, err := e.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var out []Task
	for _, w := range windows {
		if err := e.Reset(w); err != nil {
			t.Fatal(err)
		}
		ts, err := e.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ts...)
	}
	return out
}

// replayKernels are the sweep-log fixtures: a roomy skewed product, a
// banded one whose tiny partitions force fallback retries, one whose
// partitions are smaller than a single stored micro tile (overflow), and
// a uniform three-operand kernel with an output whose dense A forces the
// fallback to subdivide a constrained K.
func replayKernels() map[string]*Kernel {
	rmA := gen.RMAT(96, 1100, 0.57, 0.19, 0.19, 31)
	rmB := gen.RMAT(96, 1100, 0.57, 0.19, 0.19, 32)
	bandA := gen.Banded(80, 4, 2, 0.6, 33)
	bandB := gen.Banded(80, 4, 2, 0.6, 34)
	return map[string]*Kernel{
		"rmat":     spmspmKernel(rmA, rmB, 2, 1500, 1500),
		"fallback": spmspmKernel(bandA, bandB, 1, 70, 70),
		"overflow": spmspmKernel(rmA, rmB, 2, 60, 60),
		"uniform": {
			DimNames:   []string{"I", "J", "K"},
			Contracted: []bool{false, false, true},
			Extent:     []int{6, 9, 40},
			Operands: []Operand{
				{Name: "A", Dims: []int{0, 2}, View: uniformView{cellFP: 10}, Capacity: 50},
				{Name: "B", Dims: []int{2, 1}, View: uniformView{cellFP: 1}, Capacity: 120},
				{Name: "Z", Dims: []int{0, 1}, View: uniformView{cellFP: 3}, Capacity: 40, Output: true},
			},
		},
	}
}

// replayConfigs crosses the three growth strategies with the I→J→K,
// J→K→I and K→I→J loop orders. Static steps bypass the log; their legs
// pin that the bypass changes no task either.
func replayConfigs() map[string]*Config {
	orders := map[string][]int{"ijk": {0, 1, 2}, "jki": {1, 2, 0}, "kij": {2, 0, 1}}
	out := map[string]*Config{}
	for on, lo := range orders {
		out[on+"-greedy"] = &Config{LoopOrder: lo, Strategy: GreedyContractedFirst}
		out[on+"-alternating"] = &Config{LoopOrder: lo, Strategy: Alternating, GrowStep: 2}
		out[on+"-static"] = &Config{LoopOrder: lo, Strategy: Static, InitialSize: []int{3, 2, 3}}
	}
	return out
}

// TestSweepLogReplayIsExact pins the sweep log's exactness on flat walks:
// replaying logged operand steps must leave every field of every task —
// ranges, per-operand metrics, Probes, ScanTiles, Overflow — identical to
// running each step afresh. Its siblings cover the hierarchical Reset
// pattern and sharded streams.
func TestSweepLogReplayIsExact(t *testing.T) {
	kernels := replayKernels()
	configs := replayConfigs()
	sawOverflow := false
	for kn, k := range kernels {
		for cn, cfg := range configs {
			t.Run(kn+"/"+cn, func(t *testing.T) {
				fresh, err := NewEnumerator(k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var want []Task
				withoutReplay(func() { want = drainWindows(t, fresh, nil) })
				if hits := fresh.CacheStats().StepHits; hits != 0 {
					t.Fatalf("replay-off walk replayed %d steps", hits)
				}
				e, err := NewEnumerator(k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Walk twice: the second walk starts from a fully
				// populated log.
				for pass := 0; pass < 2; pass++ {
					full := make([]Range, k.NDims())
					for d := range full {
						full[d] = Range{0, k.Extent[d]}
					}
					got := drainWindows(t, e, [][]Range{full})
					requireSameTasks(t, fmt.Sprintf("pass %d", pass), got, want)
				}
				for _, task := range want {
					sawOverflow = sawOverflow || task.Overflow
				}
				if kn == "rmat" && cn == "kij-greedy" && e.CacheStats().StepHits == 0 {
					t.Fatal("K→I→J walk replayed no step")
				}
			})
		}
	}
	if !sawOverflow {
		t.Fatal("no fixture produced an overflow task")
	}
}

// TestSweepLogHierarchicalReplay re-windows one K→I→J enumerator across
// every outer task of a J→K→I walk — the accel.runPELevel pattern of
// TestHierarchicalResetAllocFree — with and without replay.
func TestSweepLogHierarchicalReplay(t *testing.T) {
	for kn, k := range replayKernels() {
		outer, err := NewEnumerator(k, &Config{LoopOrder: []int{1, 2, 0}, Strategy: GreedyContractedFirst})
		if err != nil {
			t.Fatal(err)
		}
		outerTasks, err := outer.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		windows := make([][]Range, len(outerTasks))
		for i := range outerTasks {
			windows[i] = outerTasks[i].Ranges
		}
		for sn, strat := range map[string]Strategy{"greedy": GreedyContractedFirst, "alternating": Alternating} {
			t.Run(kn+"/"+sn, func(t *testing.T) {
				cfg := &Config{LoopOrder: []int{2, 0, 1}, Strategy: strat}
				fresh, err := NewEnumerator(k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var want []Task
				withoutReplay(func() { want = drainWindows(t, fresh, windows) })
				e, err := NewEnumerator(k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameTasks(t, "hierarchical", drainWindows(t, e, windows), want)
				if kn == "rmat" && e.CacheStats().StepHits == 0 {
					t.Fatal("hierarchical K→I→J re-tiling replayed no step")
				}
			})
		}
	}
}

// stepState is one operand step's key: the builder state of each dim.
type stepState struct {
	base, size, cap, hi [2]int
	frozen, constrained [2]bool
}

// stepOutcome is everything a step writes.
type stepOutcome struct {
	sizes    [2]int
	probes   int
	scans    int64
	overflow bool
	retry    int
}

// runStepAt loads s into b and runs one step of operand 0 at the log's
// current position.
func runStepAt(b *builder, s stepState) stepOutcome {
	b.base, b.sizes = s.base[:], append([]int(nil), s.size[:]...)
	b.frozen = s.frozen[:]
	copy(b.constrained, s.constrained[:])
	copy(b.cap, s.cap[:])
	b.window = []Range{{0, s.hi[0]}, {0, s.hi[1]}}
	b.probes, b.scans, b.overflw = 0, 0, false
	retry := b.step(0)
	return stepOutcome{[2]int{b.sizes[0], b.sizes[1]}, b.probes, b.scans, b.overflw, retry}
}

// TestSweepLogKeyIsComplete steps one operand twice at the same log
// position from states that differ in a single key field, chosen so that
// the field changes the outcome; the second step must match a fresh
// builder's. Dropping any field from the key fails its case.
func TestSweepLogKeyIsComplete(t *testing.T) {
	// A(I,K) over a uniform 16×16 grid, 12 cells of room: unconstrained
	// greedy growth settles on I=1, K=12.
	k := &Kernel{
		DimNames:   []string{"I", "K"},
		Contracted: []bool{false, true},
		Extent:     []int{16, 16},
		Operands:   []Operand{{Name: "A", Dims: []int{0, 1}, View: uniformView{cellFP: 1}, Capacity: 12}},
	}
	cfg := &Config{LoopOrder: []int{0, 1}, Strategy: GreedyContractedFirst}
	free := stepState{size: [2]int{1, 1}, cap: [2]int{16, 16}, hi: [2]int{16, 16}}
	// K held at 14 cells: over capacity even at I=1, so the step either
	// asks the fallback to subdivide K or, with K frozen, overflows.
	held := free
	held.size[1], held.constrained[1] = 14, true
	cases := []struct {
		name string
		a    stepState
		edit func(*stepState)
	}{
		{"base", free, func(s *stepState) { s.base[1] = 10 }},
		{"size", free, func(s *stepState) { s.size[0] = 2 }},
		{"cap", free, func(s *stepState) { s.cap[1] = 8 }},
		{"hi", free, func(s *stepState) { s.hi[1] = 8 }},
		{"constrained", free, func(s *stepState) { s.constrained[1] = true }},
		{"frozen", held, func(s *stepState) { s.frozen[1] = true }},
	}
	for _, tc := range cases {
		other := tc.a
		tc.edit(&other)
		fresh := func(s stepState) stepOutcome { return runStepAt(newBuilder(k, cfg), s) }
		wantA, wantB := fresh(tc.a), fresh(other)
		if wantA == wantB {
			t.Fatalf("%s: fixture does not change the outcome (%+v)", tc.name, wantA)
		}
		b := newBuilder(k, cfg)
		runStepAt(b, tc.a)
		if got := runStepAt(b, other); got != wantB {
			t.Errorf("%s: step after a %s-only change replayed %+v, want %+v", tc.name, tc.name, got, wantB)
		}
	}
}

// requireSameTasks fails unless got and want agree in every Task field.
func requireSameTasks(t *testing.T, leg string, got, want []Task) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tasks, want %d", leg, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: task %d diverged\ngot  %+v\nwant %+v", leg, i, got[i], want[i])
		}
	}
}
