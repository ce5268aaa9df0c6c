package accel

import (
	"math"
	"testing"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/obs"
	"drt/internal/sim"
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
