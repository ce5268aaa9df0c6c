package exp

import (
	"fmt"

	"drt/internal/accel/extensor"
	"drt/internal/core"
	"drt/internal/cpuref"
	"drt/internal/energy"
	"drt/internal/extractor"
	"drt/internal/metrics"
	"drt/internal/sim"
	"drt/internal/workloads"
)

// Fig12 regenerates Figure 12: ExTensor-OP-DRT speedup over the CPU as
// DRAM bandwidth scales 1×–8×, for the three intersection units.
func (c *Context) Fig12() (*metrics.Table, error) {
	t := metrics.NewTable("Fig. 12: bandwidth scaling (geomean speedup over CPU)",
		"bandwidth", "Skip-Based", "Parallel", "Serial-Optimal")
	kinds := []sim.IntersectKind{sim.SkipBased, sim.Parallel, sim.SerialOptimal}
	mults := []float64{1, 2, 4, 8}
	entries := c.fig6Entries()
	// The CPU reference is machine-sweep-invariant and reads only the
	// workload summary: one run per entry, not one per (bandwidth, unit,
	// workload) cell. Against a store holding every workload's summary
	// record and schedule, neither it nor the sweep builds a workload.
	cpuSecs, err := forEntries(c, entries, func(e workloads.Entry) (float64, error) {
		w, err := c.Square(e)
		if err != nil {
			return 0, err
		}
		return cpuref.SpMSpM(w, c.CPU()).Seconds, nil
	})
	if err != nil {
		return nil, err
	}
	// One point per (bandwidth, unit, workload) triple. All 12 (bandwidth,
	// unit) points share one recorded schedule per workload — neither knob
	// shapes the tile stream — so runPoints collapses each workload to a
	// single batched pricing pass over its trace.
	n := len(mults) * len(kinds) * len(entries)
	points := make([]sweepPoint, n)
	for i := range points {
		opt := c.extensorOptions()
		opt.Machine.DRAMBandwidth *= mults[i/len(entries)/len(kinds)]
		opt.Intersect = kinds[i/len(entries)%len(kinds)]
		points[i] = sweepPoint{E: entries[i%len(entries)], V: extensor.OPDRT, Opt: opt}
	}
	results, err := c.runPoints(points)
	if err != nil {
		return nil, err
	}
	speedups := make([]float64, n)
	for i, r := range results {
		speedups[i] = cpuSecs[i%len(entries)] / points[i].Opt.Machine.Seconds(r.Cycles())
	}
	for mi, mult := range mults {
		cells := []any{fmt.Sprintf("%gx", mult)}
		for ki := range kinds {
			lo := (mi*len(kinds) + ki) * len(entries)
			cells = append(cells, metrics.Geomean(speedups[lo:lo+len(entries)]))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Fig13 regenerates Figure 13: the area breakdown of ExTensor-OP-DRT.
func (c *Context) Fig13() (*metrics.Table, error) {
	m := sim.DefaultMachine() // area is reported for the full-scale design
	ab := energy.AreaBreakdown(m)
	total := energy.TotalArea(m)
	t := metrics.NewTable("Fig. 13: area breakdown (fraction of total)",
		"unit", "mm^2", "fraction")
	for comp := energy.GlobalBuffer; comp <= energy.TileExtractors; comp++ {
		t.AddRow(comp.String(), ab[comp], ab[comp]/total)
	}
	t.AddRow("TOTAL", total, 1.0)
	t.AddRow("extractor overhead", "", energy.ExtractorOverhead(m))
	return t, nil
}

// Fig14 regenerates Figure 14: geomean runtime as the A/B/O buffer
// partition split changes.
func (c *Context) Fig14() (*metrics.Table, error) {
	t := metrics.NewTable("Fig. 14: buffer partition sweep (geomean runtime, ms)",
		"A%", "B%", "O%", "runtime-ms")
	entries := c.fig6Entries()
	if len(entries) > 6 {
		entries = entries[:6]
	}
	// Enumerate the admissible splits first, then fan the full
	// (partition × workload) grid out as independent cells.
	var parts []sim.Partition
	for _, af := range []float64{0.05, 0.10, 0.20, 0.40} {
		for _, bf := range []float64{0.10, 0.30, 0.50, 0.70} {
			if of := 1 - af - bf; of >= 0.05 {
				parts = append(parts, sim.Partition{AFrac: af, BFrac: bf, OFrac: of})
			}
		}
	}
	// The partition shapes the schedule, so each (partition, workload)
	// pair is its own trace key: runPoints keeps all 78 cells as singleton
	// groups — full per-cell parallelism, record-on-second-use unchanged —
	// and repeated invocations (benchmarks, the default split shared with
	// Fig. 12/15/16) replay the recorded traces.
	n := len(parts) * len(entries)
	points := make([]sweepPoint, n)
	for i := range points {
		opt := c.extensorOptions()
		opt.Partition = parts[i/len(entries)]
		points[i] = sweepPoint{E: entries[i%len(entries)], V: extensor.OPDRT, Opt: opt}
	}
	results, err := c.runPoints(points)
	if err != nil {
		return nil, err
	}
	times := make([]float64, n)
	for i, r := range results {
		times[i] = points[i].Opt.Machine.Seconds(r.Cycles()) * 1e3
	}
	for pi, p := range parts {
		lo := pi * len(entries)
		t.AddRow(p.AFrac*100, p.BFrac*100, p.OFrac*100, metrics.Geomean(times[lo:lo+len(entries)]))
	}
	return t, nil
}

// Fig15 regenerates Figure 15: traffic and runtime overhead of the
// alternating DRT growth variant relative to the default greedy
// contracted-first strategy.
func (c *Context) Fig15() (*metrics.Table, error) {
	t := metrics.NewTable("Fig. 15: alternating DRT overhead vs greedy (×, lower is better)",
		"matrix", "traffic-overhead", "runtime-overhead")
	// The growth strategy shapes the schedule (greedy and alternating are
	// distinct trace keys), so the grid stays singleton groups — but the
	// flattened fan-out runs both strategies of every entry on the pool at
	// once instead of serializing the pair inside each entry cell.
	entries := c.fig6Entries()
	points := make([]sweepPoint, 2*len(entries))
	for i, e := range entries {
		opt := c.extensorOptions()
		points[2*i] = sweepPoint{E: e, V: extensor.OPDRT, Opt: opt}
		opt.Strategy = core.Alternating
		points[2*i+1] = sweepPoint{E: e, V: extensor.OPDRT, Opt: opt}
	}
	results, err := c.runPoints(points)
	if err != nil {
		return nil, err
	}
	var trs, rts []float64
	for i, e := range entries {
		greedy, alt := results[2*i], results[2*i+1]
		tr := float64(alt.Traffic.Total()) / float64(greedy.Traffic.Total())
		rt := alt.Cycles() / greedy.Cycles()
		trs = append(trs, tr)
		rts = append(rts, rt)
		t.AddRow(e.Name, tr, rt)
	}
	t.AddRow("geomean", metrics.Geomean(trs), metrics.Geomean(rts))
	return t, nil
}

// Fig16 regenerates Figure 16: runtime as DRT's starting tile size along
// the J rank (the stationary B matrix) grows.
func (c *Context) Fig16() (*metrics.Table, error) {
	t := metrics.NewTable("Fig. 16: starting tile size sweep (runtime, ms)",
		"matrix", "startJ=1", "2", "4", "8", "16")
	entries := c.fig6Entries()
	if len(entries) > 6 {
		entries = entries[:6]
	}
	// The starting size shapes the schedule: one trace per (startJ,
	// workload) — singleton groups under runPoints — with the startJ=1
	// point shared with Fig. 12/15.
	startJs := []int{1, 2, 4, 8, 16}
	n := len(entries) * len(startJs)
	points := make([]sweepPoint, n)
	for i := range points {
		opt := c.extensorOptions()
		opt.InitialSize = []int{1, startJs[i%len(startJs)], 1}
		points[i] = sweepPoint{E: entries[i/len(startJs)], V: extensor.OPDRT, Opt: opt}
	}
	results, err := c.runPoints(points)
	if err != nil {
		return nil, err
	}
	times := make([]float64, n)
	for i, r := range results {
		times[i] = points[i].Opt.Machine.Seconds(r.Cycles()) * 1e3
	}
	for ei, e := range entries {
		cells := []any{e.Name}
		for si := range startJs {
			cells = append(cells, times[ei*len(startJs)+si])
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Fig17 regenerates Figure 17: overall DRAM traffic as the micro tile
// shape changes. Large micro tiles converge to S-U-C behavior; tiny ones
// pay metadata overhead.
func (c *Context) Fig17() (*metrics.Table, error) {
	t := metrics.NewTable("Fig. 17: micro tile shape sweep (traffic, MB)",
		"matrix", "mt=4", "mt=8", "mt=16", "mt=32", "mt=64")
	entries := c.fig6Entries()
	if len(entries) > 6 {
		entries = entries[:6]
	}
	// One cell per entry: the micro-tile loop re-tiles the memoized S²
	// workload, so operand generation runs once per entry (and is shared
	// with every other figure) instead of once per (entry, mt); each edge
	// rebuilds only the grids and recounts the reference product.
	mts := []int{4, 8, 16, 32, 64}
	rows, err := forEntries(c, entries, func(e workloads.Entry) ([]float64, error) {
		base, err := c.Square(e)
		if err != nil {
			return nil, err
		}
		var mbs []float64
		for _, mt := range mts {
			cfg := c.workloadConfig()
			cfg.MicroTile = mt
			w, err := base.Retile(cfg)
			if err != nil {
				return nil, err
			}
			r, err := extensor.Run(extensor.OPDRT, w, c.extensorOptions())
			if err != nil {
				return nil, err
			}
			mbs = append(mbs, metrics.MB(r.Traffic.Total()))
		}
		return mbs, nil
	})
	if err != nil {
		return nil, err
	}
	for ei, e := range entries {
		cells := []any{e.Name}
		for _, mb := range rows[ei] {
			cells = append(cells, mb)
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Sec65 regenerates the Section 6.5 studies: the parallel tile extractor's
// runtime overhead versus an ideal extractor, and the energy comparison of
// the three ExTensor variants.
func (c *Context) Sec65() (*metrics.Table, error) {
	t := metrics.NewTable("Sec. 6.5: extraction overhead and energy",
		"matrix", "extract-overhead-%", "E(ExTensor)/E(DRT)", "E(OP)/E(DRT)")
	entries := c.fig6Entries()
	if len(entries) > 8 {
		entries = entries[:8]
	}
	var ovh, eEx, eOP []float64
	type cell struct{ over, rEx, rOP float64 }
	cells, err := forEntries(c, entries, func(e workloads.Entry) (cell, error) {
		w, err := c.Square(e)
		if err != nil {
			return cell{}, err
		}
		opt := c.extensorOptions()
		opt.Extractor = extractor.ParallelExtractor
		// The parallel-vs-ideal pair retimes one shared trace: the
		// extractor kind prices the schedule without shaping it.
		parRun, err := c.runExtensor(extensor.OPDRT, e.Name, w, opt)
		if err != nil {
			return cell{}, err
		}
		opt.Extractor = extractor.IdealExtractor
		ideal, err := c.runExtensor(extensor.OPDRT, e.Name, w, opt)
		if err != nil {
			return cell{}, err
		}
		ex, err := c.runExtensor(extensor.Original, e.Name, w, opt)
		if err != nil {
			return cell{}, err
		}
		op, err := c.runExtensor(extensor.OP, e.Name, w, opt)
		if err != nil {
			return cell{}, err
		}
		eDRT := energy.Estimate(parRun).Total()
		return cell{
			over: (parRun.Cycles() - ideal.Cycles()) / ideal.Cycles() * 100,
			rEx:  energy.Estimate(ex).Total() / eDRT,
			rOP:  energy.Estimate(op).Total() / eDRT,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range entries {
		cl := cells[i]
		ovh = append(ovh, cl.over)
		eEx = append(eEx, cl.rEx)
		eOP = append(eOP, cl.rOP)
		t.AddRow(e.Name, cl.over, cl.rEx, cl.rOP)
	}
	t.AddRow("geomean", metrics.Median(ovh), metrics.Geomean(eEx), metrics.Geomean(eOP))
	return t, nil
}
