package exp

import (
	"drt/internal/accel/extensor"
	"drt/internal/metrics"
	"drt/internal/sim"
	"drt/internal/swdrt"
	"drt/internal/tiling"
	"drt/internal/workloads"
)

// The ablation experiments implement the paper's stated future-work items
// and quantify the design choices DESIGN.md calls out:
//
//   - ablTCC: T-CC (doubly compressed) micro tiles versus the default
//     T-UC, the fix Sec. 6.3 proposes for the software study's
//     metadata-overhead outliers.
//   - ablAutoTile: choosing the micro tile shape at runtime from the
//     input's sparsity (Fig. 17's "future work will consider deciding the
//     micro tile shape at runtime").
//   - ablDynPart: per-workload buffer partitioning versus the one fixed
//     split used for all workloads (Sec. 6.6 "We consider dynamic
//     allocations for future work").

// AblTCC compares micro-tile representations: footprint and software-DRT
// traffic improvement under T-UC vs T-CC.
func (c *Context) AblTCC() (*metrics.Table, error) {
	t := metrics.NewTable("Ablation: T-CC vs T-UC micro tiles (software study)",
		"matrix", "fp-TUC-MB", "fp-TCC-MB", "DNCx-TUC", "DNCx-TCC", "TCC gain")
	opt := swdrt.DefaultOptions()
	opt.LLCBytes = c.CPU().LLCBytes
	var gains []float64
	type cell struct {
		fpTUC, fpTCC   int64
		dncTUC, dncTCC float64
	}
	cells, err := forEntries(c, c.fig6Entries(), func(e workloads.Entry) (cell, error) {
		base, err := c.Square(e)
		if err != nil {
			return cell{}, err
		}
		// Both representations re-tile the memoized workload's operands;
		// only the grids differ.
		cfg := c.workloadConfig()
		cfg.Format = tiling.TUC
		wTUC, err := base.Retile(cfg)
		if err != nil {
			return cell{}, err
		}
		cfg.Format = tiling.TCC
		wTCC, err := base.Retile(cfg)
		if err != nil {
			return cell{}, err
		}
		sTUC, err := swdrt.Run(wTUC, opt)
		if err != nil {
			return cell{}, err
		}
		sTCC, err := swdrt.Run(wTCC, opt)
		if err != nil {
			return cell{}, err
		}
		fa, fb := wTUC.InputFootprint()
		fa2, fb2 := wTCC.InputFootprint()
		return cell{
			fpTUC: fa + fb, fpTCC: fa2 + fb2,
			dncTUC: sTUC.DNCImprovement(), dncTCC: sTCC.DNCImprovement(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range c.fig6Entries() {
		cl := cells[i]
		gain := cl.dncTCC / cl.dncTUC
		gains = append(gains, gain)
		t.AddRow(e.Name, metrics.MB(cl.fpTUC), metrics.MB(cl.fpTCC),
			cl.dncTUC, cl.dncTCC, gain)
	}
	t.AddRow("geomean", "", "", "", "", metrics.Geomean(gains))
	return t, nil
}

// AblAutoTile compares a runtime-chosen micro tile edge against the fixed
// configuration-time edge.
func (c *Context) AblAutoTile() (*metrics.Table, error) {
	t := metrics.NewTable("Ablation: runtime micro tile selection",
		"matrix", "fixed-edge", "auto-edge", "traffic-fixed-MB", "traffic-auto-MB", "gain")
	opt := c.extensorOptions()
	var gains []float64
	entries := c.fig6Entries()
	if len(entries) > 8 {
		entries = entries[:8]
	}
	type cell struct {
		edge        int
		fixed, auto int64
	}
	cells, err := forEntries(c, entries, func(e workloads.Entry) (cell, error) {
		base, err := c.Square(e)
		if err == nil {
			base, err = base.Built() // the edge choice reads the operands
		}
		if err != nil {
			return cell{}, err
		}
		edge := tiling.SuggestMicroTile(base.A, 4, 8, 16, 32)
		run := func(mt int) (int64, error) {
			cfg := c.workloadConfig()
			cfg.MicroTile = mt
			// Re-tiling the memoized workload reuses its operands; only the
			// summary grids and the reference count are rebuilt per
			// candidate edge.
			w, err := base.Retile(cfg)
			if err != nil {
				return 0, err
			}
			r, err := extensor.Run(extensor.OPDRT, w, opt)
			if err != nil {
				return 0, err
			}
			return r.Traffic.Total(), nil
		}
		fixed, err := run(c.Opt.MicroTile)
		if err != nil {
			return cell{}, err
		}
		auto, err := run(edge)
		if err != nil {
			return cell{}, err
		}
		return cell{edge: edge, fixed: fixed, auto: auto}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range entries {
		cl := cells[i]
		gain := float64(cl.fixed) / float64(cl.auto)
		gains = append(gains, gain)
		t.AddRow(e.Name, c.Opt.MicroTile, cl.edge, metrics.MB(cl.fixed), metrics.MB(cl.auto), gain)
	}
	t.AddRow("geomean", "", "", "", "", metrics.Geomean(gains))
	return t, nil
}

// AblDynPart compares per-workload buffer partition tuning (a dynamic
// allocation oracle) against the fixed configuration-time split.
func (c *Context) AblDynPart() (*metrics.Table, error) {
	t := metrics.NewTable("Ablation: per-workload buffer partitioning",
		"matrix", "fixed-ms", "best-ms", "best-A%", "best-B%", "gain")
	candidates := []sim.Partition{
		{AFrac: 0.05, BFrac: 0.45, OFrac: 0.50},
		{AFrac: 0.10, BFrac: 0.45, OFrac: 0.45},
		{AFrac: 0.10, BFrac: 0.60, OFrac: 0.30},
		{AFrac: 0.20, BFrac: 0.40, OFrac: 0.40},
		{AFrac: 0.30, BFrac: 0.30, OFrac: 0.40},
		{AFrac: 0.05, BFrac: 0.70, OFrac: 0.25},
	}
	var gains []float64
	entries := c.fig6Entries()
	if len(entries) > 8 {
		entries = entries[:8]
	}
	// Each partition is its own trace key (singleton group), but the
	// flattened fan-out prices all 7 candidates of every entry on the pool
	// at once instead of serializing them inside each entry cell. Points
	// 7i..7i+6 are entry i's fixed split followed by the candidates, in
	// the comparison order the per-entry loop used.
	stride := 1 + len(candidates)
	points := make([]sweepPoint, stride*len(entries))
	for ei, e := range entries {
		opt := c.extensorOptions()
		points[stride*ei] = sweepPoint{E: e, V: extensor.OPDRT, Opt: opt}
		for pi, p := range candidates {
			opt.Partition = p
			points[stride*ei+1+pi] = sweepPoint{E: e, V: extensor.OPDRT, Opt: opt}
		}
	}
	results, err := c.runPoints(points)
	if err != nil {
		return nil, err
	}
	type cell struct {
		fixedMS, bestMS float64
		bestPart        sim.Partition
	}
	cells := make([]cell, len(entries))
	for ei := range entries {
		opt := points[stride*ei].Opt
		cl := cell{bestPart: opt.Partition}
		cl.fixedMS = opt.Machine.Seconds(results[stride*ei].Cycles()) * 1e3
		cl.bestMS = cl.fixedMS
		for pi, p := range candidates {
			r := results[stride*ei+1+pi]
			if ms := opt.Machine.Seconds(r.Cycles()) * 1e3; ms < cl.bestMS {
				cl.bestMS, cl.bestPart = ms, p
			}
		}
		cells[ei] = cl
	}
	for i, e := range entries {
		cl := cells[i]
		gain := cl.fixedMS / cl.bestMS
		gains = append(gains, gain)
		t.AddRow(e.Name, cl.fixedMS, cl.bestMS, cl.bestPart.AFrac*100, cl.bestPart.BFrac*100, gain)
	}
	t.AddRow("geomean", "", "", "", "", metrics.Geomean(gains))
	return t, nil
}

// AblPipeline compares the phase-max runtime model (steady-state pipelined
// phases) against the explicit event-driven schedule of the task pipeline,
// quantifying how much fill/drain and per-request DRAM latency the
// phase-max approximation hides.
func (c *Context) AblPipeline() (*metrics.Table, error) {
	t := metrics.NewTable("Ablation: phase-max vs event-driven pipeline timing",
		"matrix", "variant", "phase-max-ms", "event-ms", "event/phase")
	opt := c.extensorOptions()
	var ratios []float64
	entries := c.fig6Entries()
	if len(entries) > 8 {
		entries = entries[:8]
	}
	variants := []extensor.Variant{extensor.OP, extensor.OPDRT}
	// Flatten the (entry, variant) grid so both variants of every entry
	// run on the pool at once; OP (no pinned shape) is trace-ineligible
	// and runs the full engine, OPDRT replays its shared trace.
	points := make([]sweepPoint, len(entries)*len(variants))
	for ei, e := range entries {
		for vi, v := range variants {
			points[ei*len(variants)+vi] = sweepPoint{E: e, V: v, Opt: opt}
		}
	}
	results, err := c.runPoints(points)
	if err != nil {
		return nil, err
	}
	for ei, e := range entries {
		for vi, v := range variants {
			r := results[ei*len(variants)+vi]
			pm := opt.Machine.Seconds(r.Cycles()) * 1e3
			ev := opt.Machine.Seconds(r.PipelineCyclesExact) * 1e3
			ratio := ev / pm
			ratios = append(ratios, ratio)
			t.AddRow(e.Name, v.String(), pm, ev, ratio)
		}
	}
	t.AddRow("geomean", "", "", "", metrics.Geomean(ratios))
	return t, nil
}
