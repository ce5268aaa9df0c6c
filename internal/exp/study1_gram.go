package exp

import (
	"drt/internal/accel"
	"drt/internal/core"
	"drt/internal/cpuref"
	"drt/internal/extractor"
	"drt/internal/metrics"
	"drt/internal/par"
	"drt/internal/sim"
	"drt/internal/workloads"
)

// tensorScale derives the 3-tensor scale from the matrix scale: the
// tensor suite's modes are already sized for simulation, so tensors only
// shrink under aggressive (test) scales.
func (c *Context) tensorScale() int {
	switch {
	case c.Opt.Scale >= 48:
		return 4
	case c.Opt.Scale >= 16:
		return 2
	}
	return 1
}

// Fig09 regenerates Figure 9: arithmetic intensity of the Gram kernel
// relative to the TACO CPU baseline, for the S-U-C (ExTensor-OP) and DRT
// (ExTensor-OP-DRT) configurations across the tensor density sweep. The
// CPU baseline is granted the same fast-memory capacity as the
// accelerator buffer, so the ratio isolates the tiling scheme.
func (c *Context) Fig09() (*metrics.Table, error) {
	t := metrics.NewTable("Fig. 9: Gram arithmetic intensity over TACO (×)",
		"tensor", "density", "AI-TACO", "SUC/TACO", "DRT/TACO", "DRT/SUC")
	ts := c.tensorScale()
	m := c.Machine()
	m.GlobalBuffer = 256 << 10 / int64(ts)
	if m.GlobalBuffer < 32<<10 {
		m.GlobalBuffer = 32 << 10
	}
	cpu := c.CPU()
	cpu.LLCBytes = m.GlobalBuffer
	suite := workloads.TensorSuite
	if n := c.Opt.MaxWorkloads; n > 0 && n < len(suite) {
		suite = suite[:n]
	}
	var sucR, drtR []float64
	type cell struct {
		density, tacoAI, sucGain, drtGain float64
	}
	cells, err := par.MapWith(c.pool(nil), len(suite), func(i int) (cell, error) {
		e := suite[i]
		// The generated tensor and its Gram workload are memoized per entry
		// (building one runs the exact reference kernel); repeated
		// invocations reuse them.
		gw, err := workload(c, c.grams, e.Name, func() (*accel.GramWorkload, error) {
			c.countBuild()
			cfg := c.workloadConfig()
			cfg.MicroTile = c.Opt.MicroTile/2 + 1
			return accel.NewGramWorkloadWith(e.Name, e.Generate(ts), cfg)
		})
		if err != nil {
			return cell{}, err
		}
		x := gw.X
		taco := cpuref.TACOGram(x, gw.MACCs, cpu)
		opt := accel.GramOptions{
			Machine:   m,
			Partition: sim.DefaultPartition(),
			Intersect: sim.Parallel,
			Extractor: extractor.ParallelExtractor,
		}
		opt.Strategy = core.Static
		suc, err := accel.RunGram(gw, opt)
		if err != nil {
			return cell{}, err
		}
		opt.Strategy = core.GreedyContractedFirst
		drt, err := accel.RunGram(gw, opt)
		if err != nil {
			return cell{}, err
		}
		return cell{
			density: x.Density(),
			tacoAI:  taco.AI(),
			sucGain: suc.AI() / taco.AI(),
			drtGain: drt.AI() / taco.AI(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range suite {
		cl := cells[i]
		sucR = append(sucR, cl.sucGain)
		drtR = append(drtR, cl.drtGain)
		t.AddRow(e.Name, cl.density, cl.tacoAI, cl.sucGain, cl.drtGain, cl.drtGain/cl.sucGain)
	}
	t.AddRow("geomean", "", "", metrics.Geomean(sucR), metrics.Geomean(drtR),
		metrics.Geomean(drtR)/metrics.Geomean(sucR))
	return t, nil
}
