package accel

import (
	"slices"
	"testing"

	"drt/internal/core"
	"drt/internal/gen"
	"drt/internal/kernels"
	"drt/internal/obs"
	"drt/internal/sim"
	"drt/internal/tensor"
)

// fullKWorkloads returns a diamond, an R-MAT and a tall-skinny (F·Fᵀ)
// workload at micro tile 8.
func fullKWorkloads(t *testing.T) []*Workload {
	t.Helper()
	f := gen.TallSkinny(512, 32, 1500, 7)
	ops := []struct {
		name string
		a, b *tensor.CSR
	}{
		{"diamond", gen.Banded(256, 16, 4, 0.6, 3), gen.Banded(256, 16, 4, 0.6, 4)},
		{"rmat", gen.RMAT(256, 3000, 0.57, 0.19, 0.19, 5), gen.RMAT(256, 3000, 0.45, 0.25, 0.20, 6)},
		{"tallskinny", f, f.Transpose()},
	}
	ws := make([]*Workload, len(ops))
	for n, o := range ops {
		w, err := NewWorkload(o.name, o.a, o.b, 8)
		if err != nil {
			t.Fatal(err)
		}
		ws[n] = w
	}
	return ws
}

// TestFullKTasksMatchRestricted pins the full-K path task by task. On
// every non-empty task of DRT and static walks under all six loop orders,
// RestrictedWork reports RestrictedGustavson's MACCs, ScannedA and rows
// (Row, MACCs, AElems), sharing one scratch as the engine does; on every
// task whose K range spans the kernel, RestrictedGustavson's output count
// equals GZ's count over the task's I×J box.
func TestFullKTasksMatchRestricted(t *testing.T) {
	orders := [][]int{
		{DimI, DimJ, DimK}, {DimI, DimK, DimJ}, {DimJ, DimI, DimK},
		{DimJ, DimK, DimI}, {DimK, DimI, DimJ}, {DimK, DimJ, DimI},
	}
	for _, w := range fullKWorkloads(t) {
		gi, gk := w.GA.Extents()
		_, gj := w.GB.Extents()
		cfgs := []core.Config{
			{Strategy: core.GreedyContractedFirst},
			{Strategy: core.Alternating},
			{Strategy: core.Static, InitialSize: []int{4, 4, gk}},
			{Strategy: core.Static, InitialSize: []int{gi / 3, 1, gk}},
			{Strategy: core.Static, InitialSize: []int{2, gj, max(gk/3, 1)}},
		}
		spa := kernels.NewSPA(w.B.Cols)
		fullK := 0
		for _, order := range orders {
			for _, cfg := range cfgs {
				cfg.LoopOrder = order
				e, err := core.NewEnumerator(w.Kernel(3<<10, 3<<10), &cfg)
				if err != nil {
					t.Fatal(err)
				}
				for {
					task, ok, err := e.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					if task.Empty {
						continue
					}
					r := task.Ranges
					iR, kR, jR := coords(r[DimI], w.MicroTile), coords(r[DimK], w.MicroTile), coords(r[DimJ], w.MicroTile)
					want := kernels.RestrictedGustavson(w.A, w.B, iR, kR, jR, spa)
					wantRows := slices.Clone(want.Rows)
					got := kernels.RestrictedWork(w.A, w.B, iR, kR, jR, spa)
					if got.MACCs != want.MACCs || got.ScannedA != want.ScannedA || got.OutputNNZ != 0 ||
						len(got.Rows) != len(wantRows) {
						t.Fatalf("%s %v %v %v: RestrictedWork %+v, RestrictedGustavson %+v",
							w.Name, order, cfg.Strategy, r, got, want)
					}
					for n, g := range got.Rows {
						if wr := wantRows[n]; g.Row != wr.Row || g.MACCs != wr.MACCs || g.AElems != wr.AElems || g.OutNNZ != 0 {
							t.Fatalf("%s %v %v %v: row %d is %+v, want %+v", w.Name, order, cfg.Strategy, r, n, g, wr)
						}
					}
					if r[DimK].Lo != 0 || r[DimK].Hi != gk {
						continue
					}
					fullK++
					if z := w.GZ.RegionNNZ(r[DimI].Lo, r[DimI].Hi, r[DimJ].Lo, r[DimJ].Hi); z != want.OutputNNZ {
						t.Fatalf("%s %v %v %v: GZ counts %d output points, RestrictedGustavson %d",
							w.Name, order, cfg.Strategy, r, z, want.OutputNNZ)
					}
				}
			}
		}
		if fullK == 0 {
			t.Fatalf("%s: no full-K task", w.Name)
		}
	}
}

// TestPEMulticastPerKStep pins the PE level's multicast decisions against
// the per-outer-task rule they replace: a rebuilt sub-tile is a multicast
// replay when the same operand's region was rebuilt earlier in the same
// outer task. The test walks each run's outer tasks and sub-tasks itself,
// counts replays under that rule, and checks that no A sub-tile repeats
// and that the engine's pe.multicast_replays counter equals the count.
func TestPEMulticastPerKStep(t *testing.T) {
	ws := fullKWorkloads(t)[:2]
	parts := []sim.Partition{sim.DefaultPartition(), {AFrac: 0.3, BFrac: 0.3, OFrac: 0.4}, {AFrac: 0.05, BFrac: 0.7, OFrac: 0.25}}
	total := int64(0)
	for _, w := range ws {
		for _, s := range []core.Strategy{core.GreedyContractedFirst, core.Alternating} {
			for _, p := range parts {
				capA, capB, capO := p.Split(12 << 10)
				pa, pb, po := p.Split(2 << 10)
				opt := EngineOptions{
					Machine: sim.DefaultMachine(),
					CapA:    capA, CapB: capB, CapO: capO,
					LoopOrder: []int{DimJ, DimK, DimI},
					Strategy:  s,
					Intersect: sim.Parallel,
					PELevel:   &PELevelOptions{CapA: pa, CapB: pb, CapO: po, Strategy: s},
				}
				want := recountReplays(t, w, &opt)
				rec := obs.NewCollector()
				opt.Rec = rec
				if _, err := RunTasks(w, opt); err != nil {
					t.Fatal(err)
				}
				if got := rec.Counter("pe.multicast_replays"); got != want {
					t.Errorf("%s %v %+v: engine counted %d multicast replays, the per-outer-task rule %d", w.Name, s, p, got, want)
				}
				total += want
			}
		}
	}
	if total == 0 {
		t.Fatal("no run replays a sub-tile: the test checks nothing")
	}
}

// recountReplays walks opt's outer tasks and their K→I→J sub-tasks and
// counts the rebuilt sub-tiles whose operand region was already rebuilt
// in the same outer task, failing the test if an A region repeats.
func recountReplays(t *testing.T, w *Workload, opt *EngineOptions) int64 {
	t.Helper()
	outer, err := core.NewEnumerator(w.Kernel(opt.CapA, opt.CapB), &core.Config{LoopOrder: opt.LoopOrder, Strategy: opt.Strategy})
	if err != nil {
		t.Fatal(err)
	}
	pl := opt.PELevel
	k := w.Kernel(pl.CapA, pl.CapB)
	pe, err := core.NewEnumerator(k, &core.Config{LoopOrder: []int{DimK, DimI, DimJ}, Strategy: pl.Strategy})
	if err != nil {
		t.Fatal(err)
	}
	var replays int64
	for {
		ot, ok, err := outer.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return replays
		}
		if ot.Empty {
			continue
		}
		if err := pe.Reset(ot.Ranges); err != nil {
			t.Fatal(err)
		}
		seen := [2]map[[2]core.Range]bool{{}, {}}
		for {
			st, ok, err := pe.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for oi := range seen {
				if !st.Rebuilt[oi] {
					continue
				}
				dims := k.Operands[oi].Dims
				reg := [2]core.Range{st.Ranges[dims[0]], st.Ranges[dims[1]]}
				if !seen[oi][reg] {
					seen[oi][reg] = true
					continue
				}
				if oi == OpA {
					t.Fatalf("%s: A sub-tile %v repeats within outer task %v", w.Name, reg, ot.Ranges)
				}
				replays++
			}
		}
	}
}
