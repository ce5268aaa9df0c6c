package exp

import (
	"fmt"

	"drt/internal/accel"
	"drt/internal/accel/extensor"
	"drt/internal/cpuref"
	"drt/internal/gen"
	"drt/internal/metrics"
	"drt/internal/par"
	"drt/internal/sim"
	"drt/internal/workloads"
)

// extensorOptions builds the scaled ExTensor options for this context.
func (c *Context) extensorOptions() extensor.Options {
	opt := extensor.DefaultOptions()
	opt.Machine = c.Machine()
	opt.Parallel = c.Opt.Parallel
	return opt
}

// Fig01 regenerates Figure 1: per-operand DRAM traffic of OuterSPACE,
// MatRaptor, ExTensor and ExTensor-OP-DRT aggregated over the S² set,
// with the read-once/write-once lower bound per design.
func (c *Context) Fig01() (*metrics.Table, error) {
	exOpt := c.extensorOptions()
	type cell struct {
		os, mr, ex, drt, lower metrics.Traffic
	}
	cells, err := forEntries(c, c.fig6Entries(), func(e workloads.Entry) (cell, error) {
		var out cell
		w, err := c.Square(e)
		if err != nil {
			return out, err
		}
		r, err := accel.OuterSPACE.Run(accel.Untiled, w, exOpt.Machine, exOpt.Partition, nil)
		if err != nil {
			return out, err
		}
		out.os = r.Traffic
		r, err = accel.MatRaptor.Run(accel.Untiled, w, exOpt.Machine, exOpt.Partition, nil)
		if err != nil {
			return out, err
		}
		out.mr = r.Traffic
		r, err = c.runExtensor(extensor.Original, e.Name, w, exOpt)
		if err != nil {
			return out, err
		}
		out.ex = r.Traffic
		r, err = c.runExtensor(extensor.OPDRT, e.Name, w, exOpt)
		if err != nil {
			return out, err
		}
		out.drt = r.Traffic
		fa, fb := w.InputFootprint()
		out.lower = metrics.Traffic{A: fa, B: fb, Z: w.OutputFootprint()}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var osT, mrT, exT, drtT, lower metrics.Traffic
	for _, cl := range cells {
		osT.Add(cl.os)
		mrT.Add(cl.mr)
		exT.Add(cl.ex)
		drtT.Add(cl.drt)
		lower.Add(cl.lower)
	}
	t := metrics.NewTable("Fig. 1: aggregate DRAM traffic per operand (MB, scaled workloads)",
		"accelerator", "A", "B", "Z", "total", "lower-bound", "ratio")
	row := func(name string, tr metrics.Traffic) {
		t.AddRow(name, metrics.MB(tr.A), metrics.MB(tr.B), metrics.MB(tr.Z),
			metrics.MB(tr.Total()), metrics.MB(lower.Total()),
			float64(tr.Total())/float64(lower.Total()))
	}
	row(accel.OuterSPACE.Name, osT)
	row(accel.MatRaptor.Name, mrT)
	row(extensor.Original.String(), exT)
	row(extensor.OPDRT.String(), drtT)
	return t, nil
}

// speedups runs the three ExTensor variants on one workload and returns
// actual and DRAM-bound speedups over the modeled CPU.
type fig6Row struct {
	entry workloads.Entry
	cpu   cpuref.Result
	res   map[extensor.Variant]sim.Result
}

func (c *Context) fig6Row(e workloads.Entry, variants []extensor.Variant) (fig6Row, error) {
	w, err := c.Square(e)
	if err != nil {
		return fig6Row{}, err
	}
	row := fig6Row{entry: e, cpu: cpuref.SpMSpM(w, c.CPU()), res: map[extensor.Variant]sim.Result{}}
	opt := c.extensorOptions()
	for _, v := range variants {
		r, err := c.runExtensor(v, e.Name, w, opt)
		if err != nil {
			return fig6Row{}, fmt.Errorf("%s/%v: %w", e.Name, v, err)
		}
		row.res[v] = r
	}
	return row, nil
}

func (r fig6Row) speedup(m sim.Machine, v extensor.Variant) (actual, dramBound float64) {
	res := r.res[v]
	return r.cpu.Seconds / m.Seconds(res.Cycles()), r.cpu.Seconds / m.Seconds(res.DRAMBoundCycles())
}

// Fig06 regenerates Figure 6: S² speedup over the CPU for ExTensor,
// ExTensor-OP and ExTensor-OP-DRT, with DRAM-bound (red dot) columns.
func (c *Context) Fig06() (*metrics.Table, error) {
	variants := []extensor.Variant{extensor.Original, extensor.OP, extensor.OPDRT}
	t := metrics.NewTable("Fig. 6: S² speedup over CPU (× ; 'bound' columns are the red dots)",
		"matrix", "group", "ExTensor", "ExT-bound", "ExTensor-OP", "OP-bound", "OP-DRT", "DRT-bound")
	m := c.Machine()
	rows, err := forEntries(c, shardBlock(c.Opt.Shard, c.fig6Entries()), func(e workloads.Entry) (fig6Row, error) {
		return c.fig6Row(e, variants)
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		var cells []any
		cells = append(cells, row.entry.Name, row.entry.Pattern.String())
		for _, v := range variants {
			a, b := row.speedup(m, v)
			cells = append(cells, a, b)
		}
		t.AddRow(cells...)
	}
	t.AddGeomeanRow("geomean", "",
		metrics.GeomeanCol, "",
		metrics.GeomeanCol, "",
		metrics.GeomeanCol, "")
	return t, nil
}

// Fig07 regenerates Figure 7: tall-skinny SpMSpM (Fᵀ·F short-long and
// F·Fᵀ tall-skinny) speedups over the CPU.
func (c *Context) Fig07() (*metrics.Table, error) {
	variants := []extensor.Variant{extensor.Original, extensor.OP, extensor.OPDRT}
	t := metrics.NewTable("Fig. 7: tall-skinny speedup over CPU (×)",
		"workload", "shape", "ExTensor", "ExTensor-OP", "OP-DRT", "DRT-bound")
	m := c.Machine()
	opt := c.extensorOptions()
	entries := c.fig6Entries()
	if len(entries) > 8 && c.Opt.MaxWorkloads == 0 {
		entries = entries[:8]
	}
	entries = shardBlock(c.Opt.Shard, entries)
	// One cell per (entry, orientation): both tall-skinny products of one
	// matrix are independent of every other cell.
	type pairRow struct {
		name, suffix string
		speedup      map[extensor.Variant]float64
		drtBound     float64
	}
	suffixes := []string{"FᵀF", "FFᵀ"}
	n := len(entries) * len(suffixes)
	weights := c.gridWeights(n, func(i int) workloads.Entry { return entries[i/len(suffixes)] })
	rows, err := par.MapWith(c.pool(weights), n, func(i int) (pairRow, error) {
		e, suffix := entries[i/len(suffixes)], suffixes[i%len(suffixes)]
		// Both orientations and every benchmark iteration reuse the
		// memoized workload (generating the tall-skinny pair and its
		// reference product dominates the figure's cost otherwise).
		wkey := e.Name + "-FtF"
		if suffix != "FᵀF" {
			wkey = e.Name + "-FFt"
		}
		w, err := workload(c, c.spmspm, wkey, func() (*accel.Workload, error) {
			c.countBuild()
			c.noteSpec(wkey, e.TallSkinnySpec(c.Opt.Scale, 1<<7))
			f, fT := e.TallSkinnyPair(c.Opt.Scale, 1<<7)
			if suffix == "FᵀF" {
				return accel.NewWorkloadWith(wkey, fT, f, c.workloadConfig())
			}
			return accel.NewWorkloadWith(wkey, f, fT, c.workloadConfig())
		})
		if err != nil {
			return pairRow{}, err
		}
		cpu := cpuref.SpMSpM(w, c.CPU())
		row := pairRow{name: e.Name, suffix: suffix, speedup: map[extensor.Variant]float64{}}
		for _, v := range variants {
			r, err := c.runExtensor(v, wkey, w, opt)
			if err != nil {
				return pairRow{}, fmt.Errorf("%s-%s/%v: %w", e.Name, suffix, v, err)
			}
			row.speedup[v] = cpu.Seconds / m.Seconds(r.Cycles())
			if v == extensor.OPDRT {
				row.drtBound = cpu.Seconds / m.Seconds(r.DRAMBoundCycles())
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		cells := []any{row.name, row.suffix}
		for _, v := range variants {
			cells = append(cells, row.speedup[v])
		}
		cells = append(cells, row.drtBound)
		t.AddRow(cells...)
	}
	t.AddGeomeanRow("geomean", "",
		metrics.GeomeanCol,
		metrics.GeomeanCol,
		metrics.GeomeanCol, "")
	return t, nil
}

// Fig08 regenerates Figure 8: MS-BFS (all iterations, Fᵀ·S) speedup over
// the CPU for ExTensor and ExTensor-OP-DRT, ordered by the adjacency
// matrix's coefficient of row variation.
func (c *Context) Fig08() (*metrics.Table, error) {
	t := metrics.NewTable("Fig. 8: MS-BFS all-iterations speedup over CPU (aspect 2^7)",
		"matrix", "row-variation", "ExTensor", "OP-DRT", "DRT/ExT")
	m := c.Machine()
	opt := c.extensorOptions()
	type rowData struct {
		name   string
		rowVar float64
		exSec  float64
		drtSec float64
		cpuSec float64
	}
	entries := c.fig6Entries()
	if len(entries) > 10 && c.Opt.MaxWorkloads == 0 {
		entries = entries[:10]
	}
	rows, err := forEntries(c, entries, func(e workloads.Entry) (rowData, error) {
		s := e.Generate(c.Opt.Scale)
		sources := s.Rows / (1 << 7)
		if sources < 2 {
			sources = 2
		}
		init := gen.Frontier(s.Cols, sources, e.Seed+5000)
		run, err := workloads.MSBFS(s, init, 12)
		if err != nil {
			return rowData{}, err
		}
		rd := rowData{name: e.Name, rowVar: s.RowNNZVariation()}
		// Prepare all per-iteration workloads, then sweep the S-U-C
		// baseline's tile shape once per workload (on the busiest
		// iteration) — the paper sweeps per workload, and an MS-BFS
		// workload is the whole iteration sequence.
		var iterWs []*accel.Workload
		busiest := 0
		for i, f := range run.Frontiers {
			w, err := accel.NewWorkloadWith(e.Name+"-bfs", f, s, c.workloadConfig())
			if err != nil {
				return rowData{}, err
			}
			iterWs = append(iterWs, w)
			if f.NNZ() > run.Frontiers[busiest].NNZ() {
				busiest = i
			}
		}
		shape, err := extensor.BestStaticShape(extensor.Original, iterWs[busiest], opt)
		if err != nil {
			return rowData{}, err
		}
		exOpt := opt
		exOpt.StaticShape = shape
		for _, w := range iterWs {
			rd.cpuSec += cpuref.SpMSpM(w, c.CPU()).Seconds
			r, err := extensor.Run(extensor.Original, w, exOpt)
			if err != nil {
				return rowData{}, err
			}
			rd.exSec += m.Seconds(r.Cycles())
			r, err = extensor.Run(extensor.OPDRT, w, opt)
			if err != nil {
				return rowData{}, err
			}
			rd.drtSec += m.Seconds(r.Cycles())
		}
		return rd, nil
	})
	if err != nil {
		return nil, err
	}
	// Sort by increasing row variation, as the figure does (stable for
	// ties, so the parallel run's entry order is preserved).
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].rowVar < rows[j-1].rowVar; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	var exS, drtS []float64
	for _, rd := range rows {
		ex, drt := rd.cpuSec/rd.exSec, rd.cpuSec/rd.drtSec
		exS = append(exS, ex)
		drtS = append(drtS, drt)
		t.AddRow(rd.name, rd.rowVar, ex, drt, drt/ex)
	}
	t.AddRow("geomean", "", metrics.Geomean(exS), metrics.Geomean(drtS),
		metrics.Geomean(drtS)/metrics.Geomean(exS))
	return t, nil
}
