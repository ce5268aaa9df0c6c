package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"drt/internal/accel"
	"drt/internal/accel/extensor"
	"drt/internal/core"
	"drt/internal/exp"
	"drt/internal/kernels"
	"drt/internal/obs"
	"drt/internal/tiling"
)

// The layer pass calls each layer's public entry point on the run's
// prepared inputs and counts its work. It walks the same engine cells the
// workload's figures run, with the engine's loop orders and partition
// caps, so its counts repeat exactly for a given seed and move only when a
// layer does more or less work.

// enumCounts is one tiling level's extraction work (core.Enumerator).
type enumCounts struct {
	Tasks, NonEmpty, Probes, BoxHits, BoxMisses int64
}

func (c *enumCounts) add(t *core.Task) {
	c.Tasks++
	c.Probes += int64(t.Probes)
	if !t.Empty {
		c.NonEmpty++
	}
}

func (c *enumCounts) addCache(st core.ExtractStats) {
	c.BoxHits += st.BoxHits
	c.BoxMisses += st.BoxMisses
}

// kernelCounts is RestrictedGustavson's work over every task and sub-task.
type kernelCounts struct {
	Calls, RowProbes, Rows, MACCs, Scanned int64
}

// layerCounts holds every count the layer pass makes.
type layerCounts struct {
	GenNNZ         int64
	GustavsonMACCs int64
	Tiles          int64
	Outer, PE      enumCounts
	Restricted     kernelCounts
	// Trace and codec work, for workloads that replay a store.
	TraceItems    int64
	RunS, RecordS float64 // engine seconds without and with capture
	BytesEncoded  int64
	BytesMapped   int64
}

// layerPass prepares the workload's seeded inputs in a fresh context and
// counts every layer's work on them. dir receives the pass's trace files.
func layerPass(s spec, scale int, seed int64, dir string) (layerCounts, error) {
	if scale > 0 {
		s.Scale = scale
	}
	var lc layerCounts
	c := exp.NewContext(s.options(""))
	entries := s.entries(seed)
	ws := make([]*accel.Workload, len(entries))
	for i, e := range entries {
		spec := e.Spec(s.Scale)
		a, err := spec.Build()
		if err != nil {
			return lc, fmt.Errorf("%s: %w", e.Name, err)
		}
		lc.GenNNZ += int64(a.NNZ())
		_, st := kernels.Gustavson(a, a)
		lc.GustavsonMACCs += st.MACCs
		g := tiling.NewSummaryGrid(a, microTile, microTile, tiling.TUC, tiling.Auto)
		gr, gc := g.Extents()
		lc.Tiles += g.RegionTiles(0, gr, 0, gc)
		if ws[i], err = c.Square(e); err != nil {
			return lc, err
		}
		if ws[i].MACCs != st.MACCs {
			return lc, fmt.Errorf("%s: Gustavson counted %d MACCs, the workload holds %d", e.Name, st.MACCs, ws[i].MACCs)
		}
	}
	for i, cl := range s.cells(c, len(entries)) {
		w := ws[cl.entry]
		if cl.v != extensor.OPDRT {
			shape, err := extensor.BestStaticShape(cl.v, w, cl.opt)
			if err != nil {
				return lc, fmt.Errorf("%s/%v: %w", w.Name, cl.v, err)
			}
			cl.opt.StaticShape = shape
		}
		if err := lc.walk(w, cl); err != nil {
			return lc, fmt.Errorf("%s/%v: %w", w.Name, cl.v, err)
		}
		if s.Warm {
			if err := lc.replay(w, cl, filepath.Join(dir, fmt.Sprintf("cell-%d.drtt", i))); err != nil {
				return lc, fmt.Errorf("%s/%v: %w", w.Name, cl.v, err)
			}
		}
	}
	return lc, nil
}

// loopOrders are the engine's (outer, PE-level) loop orders per variant.
func loopOrders(v extensor.Variant) (outer, pe []int) {
	if v == extensor.Original {
		return []int{accel.DimI, accel.DimJ, accel.DimK}, nil
	}
	outer = []int{accel.DimJ, accel.DimK, accel.DimI}
	if v == extensor.OPDRT {
		pe = []int{accel.DimK, accel.DimI, accel.DimJ}
	}
	return outer, pe
}

// walk enumerates one cell's outer tasks and PE sub-tasks and runs the
// task kernel on each non-empty one. Its self-checks: the kernel's MACCs
// over the outer tasks, and separately over the PE sub-tasks, each equal
// the workload's, and the outer task count equals the engine's own
// engine.tasks counter for the same cell.
func (lc *layerCounts) walk(w *accel.Workload, cl cell) error {
	outerOrder, peOrder := loopOrders(cl.v)
	capA, capB, _ := cl.opt.Partition.Split(cl.opt.Machine.GlobalBuffer)
	cfg := &core.Config{LoopOrder: outerOrder, Strategy: core.Static, InitialSize: cl.opt.StaticShape}
	if cl.v == extensor.OPDRT {
		cfg.Strategy, cfg.InitialSize = cl.opt.Strategy, cl.opt.InitialSize
	}
	outer, err := core.NewEnumerator(w.Kernel(capA, capB), cfg)
	if err != nil {
		return err
	}
	var pe *core.Enumerator
	if peOrder != nil && !cl.opt.SingleLevel {
		pa, pb, _ := cl.opt.Partition.Split(cl.opt.Machine.PEBuffer)
		if pe, err = core.NewEnumerator(w.Kernel(pa, pb), &core.Config{LoopOrder: peOrder, Strategy: cl.opt.Strategy}); err != nil {
			return err
		}
	}
	spa := kernels.NewSPA(w.BCols())
	var tasks, outerMACCs, peMACCs int64
	for {
		t, ok, err := outer.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		tasks++
		lc.Outer.add(&t)
		if t.Empty {
			continue
		}
		outerMACCs += lc.restricted(w, t.Ranges, spa)
		if pe == nil {
			continue
		}
		if err := pe.Reset(t.Ranges); err != nil {
			return err
		}
		for {
			st, ok, err := pe.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			lc.PE.add(&st)
			if !st.Empty {
				peMACCs += lc.restricted(w, st.Ranges, spa)
			}
		}
	}
	lc.Outer.addCache(outer.CacheStats())
	if pe != nil {
		lc.PE.addCache(pe.CacheStats())
		if peMACCs != w.MACCs {
			return fmt.Errorf("PE sub-tasks covered %d MACCs, the workload has %d", peMACCs, w.MACCs)
		}
	}
	if outerMACCs != w.MACCs {
		return fmt.Errorf("outer tasks covered %d MACCs, the workload has %d", outerMACCs, w.MACCs)
	}
	rec := obs.NewCollector()
	opt := cl.opt
	opt.Rec = rec
	if _, err := extensor.Run(cl.v, w, opt); err != nil {
		return err
	}
	if n := rec.Counter("engine.tasks"); n != tasks {
		return fmt.Errorf("layer pass enumerated %d outer tasks, the engine ran %d", tasks, n)
	}
	return nil
}

// restricted runs the task kernel on one task's ranges (grid units) and
// returns its MACCs.
func (lc *layerCounts) restricted(w *accel.Workload, rs []core.Range, spa *kernels.SPA) int64 {
	mt := w.MicroTile
	iR := kernels.Range{Lo: rs[accel.DimI].Lo * mt, Hi: rs[accel.DimI].Hi * mt}
	jR := kernels.Range{Lo: rs[accel.DimJ].Lo * mt, Hi: rs[accel.DimJ].Hi * mt}
	kR := kernels.Range{Lo: rs[accel.DimK].Lo * mt, Hi: rs[accel.DimK].Hi * mt}
	r := w.Restricted(iR, kR, jR, spa)
	rows, _, _ := w.AShape()
	k := &lc.Restricted
	k.Calls++
	k.RowProbes += int64(max(0, min(iR.Hi, rows)-max(iR.Lo, 0)))
	k.Rows += int64(len(r.Rows))
	k.MACCs += r.MACCs
	k.Scanned += r.ScannedA
	return r.MACCs
}

// replay times the cell's plain engine run against its capture run,
// writes the recorded schedule, maps it back and prices Fig. 12's
// configurations on both copies. The mapped copy must price exactly as
// the recorded one, and the default configuration exactly as the engine.
func (lc *layerCounts) replay(w *accel.Workload, cl cell, path string) error {
	start := time.Now()
	want, err := extensor.Run(cl.v, w, cl.opt)
	if err != nil {
		return err
	}
	lc.RunS += time.Since(start).Seconds()
	start = time.Now()
	tr, err := extensor.Record(cl.v, w, cl.opt)
	if err != nil {
		return err
	}
	lc.RecordS += time.Since(start).Seconds()
	lc.TraceItems += int64(tr.NumTasks())
	if err := accel.WriteTraceFile(path, tr); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	lc.BytesEncoded += fi.Size()
	v, err := accel.OpenTrace(path)
	if err != nil {
		return err
	}
	defer v.Close()
	if v.Mapped() {
		lc.BytesMapped += v.Bytes()
	}
	opts := fig12Configs(cl.opt)
	got := extensor.RetimeBatch(cl.v, v.Trace(), opts)
	ref := extensor.RetimeBatch(cl.v, tr, opts)
	for i := range opts {
		if got[i] != ref[i] {
			return fmt.Errorf("mapped trace prices configuration %d differently from the recorded one", i)
		}
	}
	if r := extensor.Retime(cl.v, tr, cl.opt); r != want {
		return fmt.Errorf("retimed schedule differs from the engine run")
	}
	return nil
}

// addMetrics reports the counts under their per-layer metric names.
func (lc layerCounts) addMetrics(m map[string]metric) {
	count := func(name string, v int64) { m[name] = metric{float64(v), "count"} }
	count("gen.nnz", lc.GenNNZ)
	count("kernels.gustavson.maccs", lc.GustavsonMACCs)
	count("tiling.tiles", lc.Tiles)
	for _, lv := range []struct {
		name, tasks string
		c           enumCounts
	}{{"core.outer", "tasks", lc.Outer}, {"core.pe", "subtasks", lc.PE}} {
		count(lv.name+"."+lv.tasks, lv.c.Tasks)
		m[lv.name+".nonempty_ratio"] = metric{ratio(lv.c.NonEmpty, lv.c.Tasks), "ratio"}
		count(lv.name+".box_queries", lv.c.BoxHits+lv.c.BoxMisses)
		m[lv.name+".box_hit_ratio"] = metric{ratio(lv.c.BoxHits, lv.c.BoxHits+lv.c.BoxMisses), "ratio"}
	}
	count("core.outer.probes", lc.Outer.Probes)
	k := lc.Restricted
	count("kernels.restricted.calls", k.Calls)
	count("kernels.restricted.row_probes", k.RowProbes)
	count("kernels.restricted.rows", k.Rows)
	m["kernels.restricted.useful_row_ratio"] = metric{ratio(k.Rows, k.RowProbes), "ratio"}
	count("kernels.restricted.maccs", k.MACCs)
	count("kernels.restricted.scanned", k.Scanned)
	count("accel.trace.items", lc.TraceItems)
	overhead := 0.0
	if lc.RunS > 0 {
		overhead = lc.RecordS / lc.RunS
	}
	m["accel.trace.record_overhead"] = metric{overhead, "ratio"}
	m["accel.codec.bytes_encoded"] = metric{float64(lc.BytesEncoded), "bytes"}
	m["accel.codec.bytes_mapped"] = metric{float64(lc.BytesMapped), "bytes"}
}
