package tiling_test

import (
	"fmt"
	"reflect"
	"testing"

	"drt/internal/accel"
	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/kernels"
	"drt/internal/sim"
	"drt/internal/tensor"
	"drt/internal/tiling"
)

// TestBlockEdgeEngineIdentity pins the summary's block edge inside the
// engine: a workload whose grids sum 4×4 blocks and answer the strips
// from cell lists must simulate exactly as one built with per-cell sums
// (same kernel extents, task stream, traffic and cycles), and its
// reference pass must fold exactly the grid of Gustavson's product.
func TestBlockEdgeEngineIdentity(t *testing.T) {
	a := gen.RMAT(128, 900, 0.57, 0.19, 0.19, 41)
	b := gen.Banded(128, 10, 4, 0.6, 42)
	build := func(s, parallel int) *accel.Workload {
		t.Helper()
		defer tiling.SetBlockEdge(s)()
		w, err := accel.NewWorkloadWith("blocked", a, b, accel.WorkloadConfig{MicroTile: 8, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w1, w4 := build(1, 1), build(4, 4)
	if w1.MACCs != w4.MACCs {
		t.Fatalf("reference MACCs diverge between block edges: %d vs %d", w1.MACCs, w4.MACCs)
	}

	// Every engine configuration the experiments reach: the greedy
	// J→K→I walk, the static S-U-C dataflows of ExTensor (I→J→K) and
	// ExTensor-OP (J→K→I), and the hierarchical PE level re-tiling each
	// outer task.
	greedy := accel.EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    500, CapB: 500, CapO: 500,
		LoopOrder: []int{accel.DimJ, accel.DimK, accel.DimI},
		Strategy:  core.GreedyContractedFirst,
		Extractor: extractor.IdealExtractor,
	}
	staticJKI := greedy
	staticJKI.Strategy = core.Static
	staticJKI.InitialSize = []int{2, 3, 2}
	staticIJK := staticJKI
	staticIJK.LoopOrder = []int{accel.DimI, accel.DimJ, accel.DimK}
	staticIJK.Intersect = sim.SkipBased
	hier := greedy
	hier.CapA, hier.CapB, hier.CapO = 2000, 2000, 2000
	hier.Extractor = extractor.ParallelExtractor
	hier.PELevel = &accel.PELevelOptions{CapA: 300, CapB: 300, CapO: 300, Strategy: core.GreedyContractedFirst}
	for _, tc := range []struct {
		name string
		opt  accel.EngineOptions
	}{{"greedy", greedy}, {"static-ijk", staticIJK}, {"static-jki", staticJKI}, {"hierarchical", hier}} {
		r1, err := accel.RunTasks(w1, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		r4, err := accel.RunTasks(w4, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Tasks-r1.EmptyTasks < 2 {
			t.Fatalf("%s: fixture too small: %d non-empty tasks", tc.name, r1.Tasks-r1.EmptyTasks)
		}
		if !reflect.DeepEqual(r1, r4) {
			t.Fatalf("%s: simulated results diverge between block edges:\ns=1: %+v\ns=4: %+v", tc.name, r1, r4)
		}
	}

	// The reference pass at s = 4, as TestReferencePassMatchesGustavson
	// runs it at s = 1.
	defer tiling.SetBlockEdge(4)()
	sq := gen.RMAT(200, 2400, 0.57, 0.19, 0.19, 51)
	for _, op := range []struct {
		name string
		a, b *tensor.CSR
	}{{"square", sq, sq}, {"rect", gen.Uniform(150, 90, 1100, 52), gen.Uniform(90, 170, 900, 54)}} {
		z, st := kernels.Gustavson(op.a, op.b)
		for _, workers := range []int{1, 3} {
			for _, f := range []tiling.Format{tiling.TUC, tiling.TCC} {
				cfg := accel.WorkloadConfig{MicroTile: 8, Format: f, Parallel: workers}
				w, err := accel.NewWorkloadWith(op.name, op.a, op.b, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rw, err := w.Retile(accel.WorkloadConfig{MicroTile: 5, Format: f, Parallel: workers})
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []*accel.Workload{w, rw} {
					name := fmt.Sprintf("%s/workers%d/%v/mt%d", op.name, workers, f, w.MicroTile)
					if w.MACCs != st.MACCs {
						t.Fatalf("%s: MACCs %d, Gustavson %d", name, w.MACCs, st.MACCs)
					}
					if want := tiling.NewSummaryGrid(z, w.MicroTile, w.MicroTile, f, tiling.Auto); !reflect.DeepEqual(w.GZ, want) {
						t.Fatalf("%s: GZ differs from the grid of Gustavson's product", name)
					}
				}
			}
		}
	}
}

// TestGramSummariesEngineIdentity pins the Gram path the same way: its
// output grid at block edge 4 and its tensor grid in the compressed 3-D
// representation must simulate exactly as the dense grids do.
func TestGramSummariesEngineIdentity(t *testing.T) {
	x := gen.Tensor3(24, 24, 24, 700, 43)
	gd, err := accel.NewGramWorkloadWith("gram", x, accel.WorkloadConfig{MicroTile: 4, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	restore := tiling.SetBlockEdge(4)
	gc, err := accel.NewGramWorkloadWith("gram", x, accel.WorkloadConfig{MicroTile: 4, Parallel: 3})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := gd.G3.(*tiling.Grid3); !ok {
		t.Fatalf("the Gram tensor grid is a %T, want the dense *tiling.Grid3", gd.G3)
	}
	gc.G3 = tiling.NewCompressedGrid3(x, 4, 4, 4)
	if !gd.Z.Equal(gc.Z) {
		t.Fatal("Gram reference outputs diverge between worker counts")
	}
	gopt := accel.GramOptions{
		Machine:   sim.DefaultMachine(),
		Partition: sim.DefaultPartition(),
		Strategy:  core.GreedyContractedFirst,
		Intersect: sim.Parallel,
		Extractor: extractor.ParallelExtractor,
	}
	rd, err := accel.RunGram(gd, gopt)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := accel.RunGram(gc, gopt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rd, rc) {
		t.Fatalf("Gram results diverge between summaries:\ndense:  %+v\nblocked: %+v", rd, rc)
	}
}
