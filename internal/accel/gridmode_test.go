package accel

import (
	"reflect"
	"testing"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/sim"
	"drt/internal/tiling"
)

// TestGridModesIdenticalResults pins the acceptance property for the
// compressed grid inside the engine: a workload built with the compressed
// summaries must produce exactly the same simulated run — same kernel
// extents, same task stream, same traffic and cycle counts — as one built
// with the dense prefix sums. The representations differ only in memory.
func TestGridModesIdenticalResults(t *testing.T) {
	a := gen.RMAT(128, 900, 0.57, 0.19, 0.19, 41)
	b := gen.Banded(128, 10, 4, 0.6, 42)

	build := func(mode tiling.Mode, parallel int) *Workload {
		t.Helper()
		w, err := NewWorkloadWith("gridmode", a, b,
			WorkloadConfig{MicroTile: 8, Grid: mode, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	wd := build(tiling.Dense, 1)
	wc := build(tiling.Compressed, 4)

	// The reference counts must be identical (parallel pass included),
	// since the sim charges MACCs and output occupancy from them.
	if wd.MACCs != wc.MACCs {
		t.Fatalf("reference MACCs diverge between grid modes: %d vs %d", wd.MACCs, wc.MACCs)
	}
	if err := sameAnswers(wc.GZ, wd.GZ); err != nil {
		t.Fatalf("reference output grids diverge between grid modes: %v", err)
	}

	// Every engine configuration the experiments reach: the greedy
	// J→K→I walk, the static S-U-C dataflows of ExTensor (I→J→K) and
	// ExTensor-OP (J→K→I), and the hierarchical PE level re-tiling each
	// outer task.
	greedy := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    500, CapB: 500, CapO: 500,
		LoopOrder: []int{DimJ, DimK, DimI},
		Strategy:  core.GreedyContractedFirst,
		Extractor: extractor.IdealExtractor,
	}
	staticJKI := greedy
	staticJKI.Strategy = core.Static
	staticJKI.InitialSize = []int{2, 3, 2}
	staticIJK := staticJKI
	staticIJK.LoopOrder = []int{DimI, DimJ, DimK}
	staticIJK.Intersect = sim.SkipBased
	hier := greedy
	hier.CapA, hier.CapB, hier.CapO = 2000, 2000, 2000
	hier.Extractor = extractor.ParallelExtractor
	hier.PELevel = &PELevelOptions{CapA: 300, CapB: 300, CapO: 300, Strategy: core.GreedyContractedFirst}
	for _, tc := range []struct {
		name string
		opt  EngineOptions
	}{{"greedy", greedy}, {"static-ijk", staticIJK}, {"static-jki", staticJKI}, {"hierarchical", hier}} {
		rd, err := RunTasks(wd, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := RunTasks(wc, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Tasks-rd.EmptyTasks < 2 {
			t.Fatalf("%s: fixture too small: %d non-empty tasks", tc.name, rd.Tasks-rd.EmptyTasks)
		}
		if !reflect.DeepEqual(rd, rc) {
			t.Fatalf("%s: simulated results diverge between grid modes:\ndense:      %+v\ncompressed: %+v", tc.name, rd, rc)
		}
	}

	// The Gram path dispatches through Summary3; pin it the same way.
	x := gen.Tensor3(24, 24, 24, 700, 43)
	gd, err := NewGramWorkloadWith("gram", x, WorkloadConfig{MicroTile: 4, Grid: tiling.Dense, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	gc, err := NewGramWorkloadWith("gram", x, WorkloadConfig{MicroTile: 4, Grid: tiling.Compressed, Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !gd.Z.Equal(gc.Z) {
		t.Fatal("Gram reference outputs diverge between grid modes")
	}
	gopt := GramOptions{
		Machine:   sim.DefaultMachine(),
		Partition: sim.DefaultPartition(),
		Strategy:  core.GreedyContractedFirst,
		Intersect: sim.Parallel,
		Extractor: extractor.ParallelExtractor,
	}
	grd, err := RunGram(gd, gopt)
	if err != nil {
		t.Fatal(err)
	}
	grc, err := RunGram(gc, gopt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grd, grc) {
		t.Fatalf("Gram results diverge between grid modes:\ndense:      %+v\ncompressed: %+v", grd, grc)
	}
}
