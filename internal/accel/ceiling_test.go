package accel

import (
	"fmt"
	"math"
	"testing"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/obs"
	"drt/internal/sim"
	"drt/internal/tiling"
)

// TestRunTasksBelowCeiling pins the ceiling's two edges on the static
// dataflows the sweep runs and on a hierarchical DRT run: a ceiling equal
// to the run's own Cycles() lets it finish bit-identical to RunTasks, and
// the next float below stops it. A ceiling the first task already passes
// stops the run after that task.
func TestRunTasksBelowCeiling(t *testing.T) {
	w, err := NewWorkload("ceiling", gen.RMAT(128, 900, 0.57, 0.19, 0.19, 41), gen.Banded(128, 10, 4, 0.6, 42), 8)
	if err != nil {
		t.Fatal(err)
	}
	jki := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    500, CapB: 500, CapO: 500,
		LoopOrder:   []int{DimJ, DimK, DimI},
		Strategy:    core.Static,
		InitialSize: []int{2, 3, 2},
		Extractor:   extractor.IdealExtractor,
	}
	ijk := jki
	ijk.LoopOrder = []int{DimI, DimJ, DimK}
	ijk.Intersect = sim.SkipBased
	drt := jki
	drt.Strategy = core.GreedyContractedFirst
	drt.InitialSize = nil
	drt.Extractor = extractor.ParallelExtractor
	drt.PELevel = &PELevelOptions{CapA: 100, CapB: 100, CapO: 100, Strategy: core.GreedyContractedFirst}
	// DRAM-bound with an output partition of a few regions: regions are
	// evicted mid-run and some are still resident at the flush, so the
	// bound must count a resident region's owed write-back as what its
	// partials fill, min(estF, partial·PartialBytes), and no more.
	evicting := jki
	evicting.CapO = 1000
	evicting.Machine.DRAMBandwidth = 1e8
	for name, opt := range map[string]EngineOptions{"static-jki": jki, "static-ijk": ijk, "drt": drt, "dram-evicting": evicting} {
		want, err := RunTasks(w, opt)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCeiling()
		c.Lower(want.Cycles())
		got, ok, err := RunTasksBelow(w, opt, c)
		if err != nil || !ok || got != want {
			t.Errorf("%s: ceiling at its own cycles: ok=%v err=%v\n%+v\nwant\n%+v", name, ok, err, got, want)
		}
		c = NewCeiling()
		c.Lower(math.Nextafter(want.Cycles(), math.Inf(-1)))
		if _, ok, err := RunTasksBelow(w, opt, c); err != nil || ok {
			t.Errorf("%s: ceiling one float below: ok=%v err=%v, want a stopped run", name, ok, err)
		}

		p := obs.NewProgress()
		obs.SetActive(p)
		c = NewCeiling()
		c.Lower(0)
		_, ok, err = RunTasksBelow(w, opt, c)
		obs.SetActive(nil)
		if err != nil || ok {
			t.Errorf("%s: zero ceiling: ok=%v err=%v, want a stopped run", name, ok, err)
		}
		if n := p.Snapshot().TasksDone; n >= int64(want.Tasks) {
			t.Errorf("%s: zero ceiling consumed %d of %d tasks", name, n, want.Tasks)
		}
	}
}

func TestCeilingLower(t *testing.T) {
	c := NewCeiling()
	if !math.IsInf(c.Load(), 1) {
		t.Fatalf("new ceiling = %v, want +Inf", c.Load())
	}
	for _, v := range []float64{5, 7, 3, 3, 4} {
		c.Lower(v)
	}
	if c.Load() != 3 {
		t.Fatalf("ceiling = %v, want the lowest value 3", c.Load())
	}
}

// bruteFits reports whether every macro tile of the regular grid opt's
// static shape cuts fits its partition, querying each tile's footprint.
func bruteFits(w *Workload, opt EngineOptions) bool {
	gi, gk := w.GA.Extents()
	_, gj := w.GB.Extents()
	s := opt.InitialSize
	fits := func(g *tiling.Grid, rows, cols, er, ec int, capacity int64) bool {
		for r := 0; r < rows; r += er {
			for c := 0; c < cols; c += ec {
				if g.RegionFootprint(r, r+er, c, c+ec) > capacity {
					return false
				}
			}
		}
		return true
	}
	return fits(w.GA, gi, gk, s[DimI], s[DimK], opt.CapA) && fits(w.GB, gk, gj, s[DimK], s[DimJ], opt.CapB)
}

// TestStaticFloorMatchesRun pins staticFloor against the run it bounds:
// over all six loop orders, StaticShapes' candidates plus [1 1 1] and an
// odd shape, and several partition pairs, a grid whose tiles all fit its
// partitions gets a floor equal to the finished run's A+B bytes, and any
// other grid gets none. It covers two operands with their own grids, a
// square self-product sharing one grid, and a tall-skinny FᵀF pair.
func TestStaticFloorMatchesRun(t *testing.T) {
	rm := gen.RMAT(128, 900, 0.57, 0.19, 0.19, 41)
	pair, err := NewWorkload("pair", rm, gen.Banded(128, 10, 4, 0.6, 42), 8)
	if err != nil {
		t.Fatal(err)
	}
	self, err := NewWorkload("self", rm, rm, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := gen.TallSkinny(320, 24, 1200, 43)
	ftf, err := NewWorkload("ftf", f.Transpose(), f, 8)
	if err != nil {
		t.Fatal(err)
	}
	orders := [][]int{
		{DimI, DimJ, DimK}, {DimI, DimK, DimJ}, {DimJ, DimI, DimK},
		{DimJ, DimK, DimI}, {DimK, DimI, DimJ}, {DimK, DimJ, DimI},
	}
	fitting, none := 0, 0
	for _, w := range []*Workload{pair, self, ftf} {
		for _, caps := range [][2]int64{{500, 500}, {1500, 6000}, {6000, 1500}, {8000, 8000}, {40000, 40000}} {
			shapes := append(StaticShapes(w, caps[0], caps[1]), [3]int{1, 1, 1}, [3]int{3, 5, 2})
			for _, order := range orders {
				for _, s := range shapes {
					opt := EngineOptions{
						Machine: sim.DefaultMachine(),
						CapA:    caps[0], CapB: caps[1], CapO: 1000,
						LoopOrder:   order,
						Strategy:    core.Static,
						InitialSize: []int{s[0], s[1], s[2]},
						Extractor:   extractor.IdealExtractor,
					}
					floor := staticFloor(w, &opt)
					res, err := RunTasks(w, opt)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s/caps=%v/order=%v/shape=%v", w.Name, caps, order, s)
					if !bruteFits(w, opt) {
						none++
						if floor != 0 {
							t.Errorf("%s: a tile overflows its partition, yet floor %d", name, floor)
						}
						continue
					}
					fitting++
					if want := res.Traffic.A + res.Traffic.B; floor != want {
						t.Errorf("%s: floor %d, run loaded A+B %d", name, floor, want)
					}
				}
			}
		}
	}
	if fitting == 0 || none == 0 {
		t.Fatalf("%d fitting and %d overflowing grids, want some of each", fitting, none)
	}
}

// TestRunTasksBelowFloorStopsBeforeFirstTask pins the pre-check: a static
// run whose ceiling is below the DRAM cycles of its A+B floor stops before
// its first task, and the same run under the ceiling at its own cycles
// still completes.
func TestRunTasksBelowFloorStopsBeforeFirstTask(t *testing.T) {
	w, err := NewWorkload("floor", gen.RMAT(128, 900, 0.57, 0.19, 0.19, 41), gen.Banded(128, 10, 4, 0.6, 42), 8)
	if err != nil {
		t.Fatal(err)
	}
	opt := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    4000, CapB: 4000, CapO: 500,
		LoopOrder:   []int{DimJ, DimK, DimI},
		Strategy:    core.Static,
		InitialSize: []int{2, 3, 2},
		Extractor:   extractor.IdealExtractor,
	}
	floor := staticFloor(w, &opt)
	if floor == 0 {
		t.Fatal("no floor for a grid whose tiles fit")
	}
	want, err := RunTasks(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := obs.NewProgress()
	obs.SetActive(p)
	c := NewCeiling()
	c.Lower(math.Nextafter(opt.Machine.DRAMCycles(floor), math.Inf(-1)))
	_, ok, err := RunTasksBelow(w, opt, c)
	obs.SetActive(nil)
	if err != nil || ok {
		t.Fatalf("ceiling below the floor: ok=%v err=%v, want a stopped run", ok, err)
	}
	if n := p.Snapshot().TasksDone; n != 0 {
		t.Errorf("ceiling below the floor consumed %d of %d tasks, want none", n, want.Tasks)
	}
}
