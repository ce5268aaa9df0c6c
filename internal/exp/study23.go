package exp

import (
	"drt/internal/accel/matraptor"
	"drt/internal/accel/outerspace"
	"drt/internal/metrics"
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
	osOpt := outerspace.Options{Machine: m, Partition: c.extensorOptions().Partition}
	mrOpt := matraptor.Options{Machine: m, Partition: osOpt.Partition}
	var osSUC, osDRT, mrSUC, mrDRT []float64
	type cell struct {
		osSUC, osSUCBound, osDRT, osDRTBound float64
		mrSUC, mrSUCBound, mrDRT, mrDRTBound float64
	}
	cells, err := forEntries(c, c.fig6Entries(), func(e workloads.Entry) (cell, error) {
		var out cell
		w, err := c.Square(e)
		if err != nil {
			return out, err
		}
		// OuterSPACE row.
		ubase, err := outerspace.Run(outerspace.Untiled, w, osOpt)
		if err != nil {
			return out, err
		}
		suc, err := outerspace.Run(outerspace.SUC, w, osOpt)
		if err != nil {
			return out, err
		}
		drt, err := outerspace.Run(outerspace.DRT, w, osOpt)
		if err != nil {
			return out, err
		}
		out.osSUC, out.osDRT = ubase.Cycles()/suc.Cycles(), ubase.Cycles()/drt.Cycles()
		out.osSUCBound, out.osDRTBound = suc.AI()/ubase.AI(), drt.AI()/ubase.AI()
		// MatRaptor row.
		mbase, err := matraptor.Run(matraptor.Untiled, w, mrOpt)
		if err != nil {
			return out, err
		}
		msuc, err := matraptor.Run(matraptor.SUC, w, mrOpt)
		if err != nil {
			return out, err
		}
		mdrt, err := matraptor.Run(matraptor.DRT, w, mrOpt)
		if err != nil {
			return out, err
		}
		out.mrSUC, out.mrDRT = mbase.Cycles()/msuc.Cycles(), mbase.Cycles()/mdrt.Cycles()
		out.mrSUCBound, out.mrDRTBound = msuc.AI()/mbase.AI(), mdrt.AI()/mbase.AI()
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range c.fig6Entries() {
		cl := cells[i]
		osSUC = append(osSUC, cl.osSUC)
		osDRT = append(osDRT, cl.osDRT)
		t.AddRow(e.Name, "OuterSPACE", cl.osSUC, cl.osSUCBound, cl.osDRT, cl.osDRTBound)
		mrSUC = append(mrSUC, cl.mrSUC)
		mrDRT = append(mrDRT, cl.mrDRT)
		t.AddRow(e.Name, "MatRaptor", cl.mrSUC, cl.mrSUCBound, cl.mrDRT, cl.mrDRTBound)
	}
	t.AddRow("geomean", "OuterSPACE", metrics.Geomean(osSUC), "", metrics.Geomean(osDRT), "")
	t.AddRow("geomean", "MatRaptor", metrics.Geomean(mrSUC), "", metrics.Geomean(mrDRT), "")
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
