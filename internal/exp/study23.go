package exp

import (
	"drt/internal/accel"
	"drt/internal/metrics"
	"drt/internal/sim"
	"drt/internal/swdrt"
	"drt/internal/workloads"
)

// Fig10 regenerates Figure 10: OuterSPACE and MatRaptor speedups of the
// S-U-C and DRT variants relative to each untiled baseline, with the
// DRAM-bound (arithmetic intensity) ratios as the red-dot columns.
func (c *Context) Fig10() (*metrics.Table, error) {
	t := metrics.NewTable("Fig. 10: portability — speedup over untiled baseline (×)",
		"matrix", "accel", "SUC", "SUC-bound", "DRT", "DRT-bound")
	m := c.Machine()
	p := c.extensorOptions().Partition
	designs := []accel.Design{accel.OuterSPACE, accel.MatRaptor}
	// speedups holds one design's row: the SUC and DRT speedups over the
	// untiled baseline and their DRAM-bound ratios.
	type speedups struct{ suc, sucBound, drt, drtBound float64 }
	cells, err := forEntries(c, c.fig6Entries(), func(e workloads.Entry) ([]speedups, error) {
		w, err := c.Square(e)
		if err != nil {
			return nil, err
		}
		out := make([]speedups, len(designs))
		for di, d := range designs {
			var r [3]sim.Result
			for ti, tl := range []accel.Tiling{accel.Untiled, accel.SUC, accel.DRT} {
				if r[ti], err = d.Run(tl, w, m, p, nil); err != nil {
					return nil, err
				}
			}
			out[di] = speedups{
				suc: r[0].Cycles() / r[1].Cycles(), sucBound: r[1].AI() / r[0].AI(),
				drt: r[0].Cycles() / r[2].Cycles(), drtBound: r[2].AI() / r[0].AI(),
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	suc := make([][]float64, len(designs))
	drt := make([][]float64, len(designs))
	for i, e := range c.fig6Entries() {
		for di, d := range designs {
			s := cells[i][di]
			suc[di] = append(suc[di], s.suc)
			drt[di] = append(drt[di], s.drt)
			t.AddRow(e.Name, d.Name, s.suc, s.sucBound, s.drt, s.drtBound)
		}
	}
	for di, d := range designs {
		t.AddRow("geomean", d.Name, metrics.Geomean(suc[di]), "", metrics.Geomean(drt[di]), "")
	}
	return t, nil
}

// Fig11 regenerates Figure 11: software S-U-C and DRT memory-traffic
// improvement over untiled SpMSpM across the S² set.
func (c *Context) Fig11() (*metrics.Table, error) {
	t := metrics.NewTable("Fig. 11: software tiling traffic improvement over untiled (×)",
		"matrix", "pattern", "density", "SW-SUC", "SW-DNC", "DNC/SUC")
	opt := swdrt.DefaultOptions()
	opt.LLCBytes = c.CPU().LLCBytes
	var sucR, dncR []float64
	results, err := forEntries(c, c.fig6Entries(), func(e workloads.Entry) (swdrt.Study, error) {
		w, err := c.Square(e)
		if err != nil {
			return swdrt.Study{}, err
		}
		return swdrt.Run(w, opt)
	})
	if err != nil {
		return nil, err
	}
	for i, e := range c.fig6Entries() {
		s := results[i]
		sucR = append(sucR, s.SUCImprovement())
		dncR = append(dncR, s.DNCImprovement())
		t.AddRow(e.Name, e.Pattern.String(), e.Density(),
			s.SUCImprovement(), s.DNCImprovement(), s.DNCImprovement()/s.SUCImprovement())
	}
	t.AddRow("geomean", "", "", metrics.Geomean(sucR), metrics.Geomean(dncR),
		metrics.Geomean(dncR)/metrics.Geomean(sucR))
	return t, nil
}
