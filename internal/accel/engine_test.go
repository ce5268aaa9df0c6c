package accel

import (
	"testing"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/obs"
	"drt/internal/sim"
	"drt/internal/tensor"
)

func denseZWorkload(t *testing.T) *Workload {
	t.Helper()
	// A small workload with a fully dense output region so the output
	// model's estimates are predictable.
	co := tensor.NewCOO(8, 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			co.Append(i, j, 1)
		}
	}
	d := tensor.FromCOO(co)
	w, err := NewWorkload("dense8", d, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestOutputModelResidentWriteOnce(t *testing.T) {
	w := denseZWorkload(t)
	om := newOutputModel(w.GZ, 1<<20) // plenty of room
	key := [4]int{0, 2, 0, 2}
	om.touch(key, 100)
	om.touch(key, 100) // same region accumulates free of charge
	om.flush()
	est := om.estFootprint(key)
	if om.zTotal != est {
		t.Fatalf("resident region wrote %d bytes, want one final write %d", om.zTotal, est)
	}
}

func TestOutputModelSpillAndMerge(t *testing.T) {
	w := denseZWorkload(t)
	// Capacity fits exactly one region; touching a second evicts the
	// first, and returning to the first re-reads its spill.
	key1 := [4]int{0, 1, 0, 2} // top half of the 2×2 output grid
	key2 := [4]int{1, 2, 0, 2} // bottom half
	om := newOutputModel(w.GZ, om1Capacity(w, key1))
	om.touch(key1, 100)
	om.touch(key2, 100) // evicts key1 (write)
	om.touch(key1, 100) // re-loads key1 (read of spilled bytes)
	om.flush()
	est1 := om.estFootprint(key1)
	est2 := om.estFootprint(key2)
	// Writes: key1 spill, key2 spill (on re-load of key1), key1 final,
	// key2... walk: total must exceed the two final writes and include
	// at least one merge re-read.
	if om.zTotal <= est1+est2 {
		t.Fatalf("spilled traffic %d should exceed write-once %d", om.zTotal, est1+est2)
	}
}

// om1Capacity returns a capacity that holds exactly one of the given
// region.
func om1Capacity(w *Workload, key [4]int) int64 {
	om := newOutputModel(w.GZ, 1)
	return om.estFootprint(key) + 1
}

func TestOutputModelStreamingRegion(t *testing.T) {
	w := denseZWorkload(t)
	key := [4]int{0, 2, 0, 2}
	om := newOutputModel(w.GZ, 1) // the region alone exceeds the partition
	om.touch(key, 3)
	first := om.zTotal
	if first <= 0 {
		t.Fatal("streaming region must spill immediately")
	}
	om.touch(key, 3)
	// The second touch re-reads the accumulated spill and writes the
	// merged result.
	if om.zTotal <= first*2 {
		t.Fatalf("second streaming touch should read+write: total %d after first %d", om.zTotal, first)
	}
	om.flush()
}

func TestOutputModelIgnoresEmptyTouch(t *testing.T) {
	w := denseZWorkload(t)
	om := newOutputModel(w.GZ, 1<<20)
	om.touch([4]int{0, 1, 0, 1}, 0)
	om.flush()
	if om.zTotal != 0 {
		t.Fatalf("empty touch produced %d bytes", om.zTotal)
	}
}

func TestRunTasksRejectsBadConfig(t *testing.T) {
	a := gen.Uniform(64, 64, 200, 1)
	w, err := NewWorkload("w", a, a, 8)
	if err != nil {
		t.Fatal(err)
	}
	opt := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    1000, CapB: 1000, CapO: 1000,
		LoopOrder: []int{0, 1}, // wrong arity
		Strategy:  core.GreedyContractedFirst,
		Extractor: extractor.IdealExtractor,
	}
	if _, err := RunTasks(w, opt); err == nil {
		t.Fatal("bad loop order accepted")
	}
}

func TestRunTasksDisjointProduct(t *testing.T) {
	// A and B occupy disjoint K ranges: every product term is zero. The
	// paper skips *empty-tile* tasks, not empty-product tasks, so the
	// engine may still load tiles — but it must produce zero MACCs and
	// zero output traffic.
	blockA := tensor.NewCOO(64, 64)
	for i := 0; i < 16; i++ {
		blockA.Append(i, i, 1)
	}
	a := tensor.FromCOO(blockA)
	blockB := tensor.NewCOO(64, 64)
	for i := 48; i < 64; i++ {
		blockB.Append(i, i, 1)
	}
	b := tensor.FromCOO(blockB)
	w, err := NewWorkload("disjoint", a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    500, CapB: 500, CapO: 500,
		LoopOrder: []int{DimJ, DimK, DimI},
		Strategy:  core.GreedyContractedFirst,
		Extractor: extractor.IdealExtractor,
	}
	r, err := RunTasks(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.MACCs != 0 || r.Traffic.Z != 0 || r.ComputeCycles != 0 {
		t.Fatalf("disjoint product did work: %+v", r)
	}
	fa, fb := w.InputFootprint()
	if r.Traffic.A > fa || r.Traffic.B > fb {
		t.Fatalf("disjoint product re-read inputs: A %d/%d B %d/%d", r.Traffic.A, fa, r.Traffic.B, fb)
	}
}

func TestRunTasksEmptyOperandNoTraffic(t *testing.T) {
	// With one operand entirely empty, every task is an empty-tile task:
	// nothing is loaded or computed.
	a := tensor.FromCOO(tensor.NewCOO(64, 64))
	b := gen.Uniform(64, 64, 200, 3)
	w, err := NewWorkload("empty-a", a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    500, CapB: 500, CapO: 500,
		LoopOrder: []int{DimJ, DimK, DimI},
		Strategy:  core.GreedyContractedFirst,
		Extractor: extractor.IdealExtractor,
	}
	r, err := RunTasks(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Traffic.Total() != 0 || r.MACCs != 0 {
		t.Fatalf("empty operand charged traffic: %+v", r)
	}
	if r.EmptyTasks != r.Tasks || r.Tasks == 0 {
		t.Fatalf("want all %d tasks empty, got %d", r.Tasks, r.EmptyTasks)
	}
}

// TestRunTasksPublishesExtractCounters checks that a hierarchical run
// publishes the builder memos' counters: the PE level's K→I→J re-tiling
// replays B's J sweeps from the sweep log.
func TestRunTasksPublishesExtractCounters(t *testing.T) {
	a := gen.RMAT(256, 4000, 0.57, 0.19, 0.19, 7)
	b := gen.RMAT(256, 4000, 0.45, 0.25, 0.20, 8)
	w, err := NewWorkload("rmat256", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewCollector()
	opt := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    6 << 10, CapB: 6 << 10, CapO: 6 << 10,
		LoopOrder: []int{DimJ, DimK, DimI},
		Strategy:  core.GreedyContractedFirst,
		Intersect: sim.Parallel,
		Extractor: extractor.ParallelExtractor,
		PELevel: &PELevelOptions{
			CapA: 1 << 10, CapB: 1 << 10, CapO: 1 << 10,
			Strategy: core.GreedyContractedFirst,
		},
		Rec: rec,
	}
	if _, err := RunTasks(w, opt); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"extract.steplog.hits", "extract.steplog.misses", "extract.boxcache.misses"} {
		if rec.Counter(name) <= 0 {
			t.Errorf("%s = %d, want > 0", name, rec.Counter(name))
		}
	}
}
