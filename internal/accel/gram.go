package accel

import (
	"fmt"
	"math"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/kernels"
	"drt/internal/obs"
	"drt/internal/sim"
	"drt/internal/tensor"
	"drt/internal/tiling"
)

// GramWorkload is one higher-order instance G_il = Σ_jk χ_ijk·χ_ljk
// (Sec. 5.1.2) prepared for simulation: the tensor micro-tiled in 3-D and
// the exact reference Gram matrix for output accounting.
type GramWorkload struct {
	Name      string
	X         *tensor.CSF3
	MicroTile int
	G3        tiling.Summary3
	GZ        tiling.Summary
	Z         *tensor.CSR
	MACCs     int64
}

// NewGramWorkload pre-processes a 3-tensor for the Gram experiments with
// the default configuration (auto grid, sequential reference kernel).
func NewGramWorkload(name string, x *tensor.CSF3, microTile int) (*GramWorkload, error) {
	return NewGramWorkloadWith(name, x, WorkloadConfig{MicroTile: microTile})
}

// NewGramWorkloadWith is NewGramWorkload with the full configuration
// bundle. Format applies only to the 2-D output grid; the 3-D tensor grid
// has a single CSF-modeled micro-tile representation.
func NewGramWorkloadWith(name string, x *tensor.CSF3, cfg WorkloadConfig) (*GramWorkload, error) {
	mt := cfg.MicroTile
	if mt < 1 {
		return nil, fmt.Errorf("accel: %s: micro tile %d", name, mt)
	}
	var z *tensor.CSR
	var st kernels.Stats
	if cfg.Parallel != 0 && cfg.Parallel != 1 {
		z, st = kernels.GramParallel(x, cfg.Parallel)
	} else {
		z, st = kernels.Gram(x)
	}
	return &GramWorkload{
		Name:      name,
		X:         x,
		MicroTile: mt,
		G3:        tiling.NewSummaryGrid3(x, mt, mt, mt, cfg.Grid),
		GZ:        tiling.NewSummaryGrid(z, mt, mt, cfg.Format, cfg.Grid),
		Z:         z,
		MACCs:     st.MACCs,
	}, nil
}

// Gram kernel dimension indices: uncontracted output dims I and L, and
// contracted dims J and K (the tensor is contracted with itself over two
// indices).
const (
	GramDimI = 0
	GramDimL = 1
	GramDimJ = 2
	GramDimK = 3
)

// GramOptions configures a Gram engine run.
type GramOptions struct {
	Machine   sim.Machine
	Partition sim.Partition
	Strategy  core.Strategy // Static = S-U-C baseline, Greedy = DRT
	Intersect sim.IntersectKind
	Extractor extractor.Kind
}

// kernel assembles the 4-dimensional DRT kernel: both operands are views
// of the same tensor, the first indexed (i, j, k) and the second (l, j, k),
// so the contracted j/k growth of one co-tiles the other. Growth is not
// capped by the output: the multiply-and-merge configuration pays spill
// traffic instead.
func (w *GramWorkload) kernel(capA, capB int64) *core.Kernel {
	gi, gj, gk := w.G3.Extents3()
	return &core.Kernel{
		DimNames:   []string{"I", "L", "J", "K"},
		Contracted: []bool{false, false, true, true},
		Extent:     []int{gi, gi, gj, gk},
		Operands: []core.Operand{
			{Name: "X(i,j,k)", Dims: []int{GramDimI, GramDimJ, GramDimK}, View: core.TensorView{G: w.G3}, Capacity: capA},
			{Name: "X(l,j,k)", Dims: []int{GramDimL, GramDimJ, GramDimK}, View: core.TensorView{G: w.G3}, Capacity: capB},
		},
	}
}

// RunGram simulates the Gram kernel: DRT (or static tiling) must now grow
// across three dimensions per operand, two of them contracted
// (Sec. 6.1.3).
//
// It is the one engine that keeps its own task loop instead of running
// through runTasks and the per-task replay: its kernel is 4-D, it counts
// intersect ops as scanned plus MACCs, and its S-U-C shape is the 3-D
// cube of gramStaticShape, not StaticShapes. No timed figure runs it.
func RunGram(w *GramWorkload, opt GramOptions) (sim.Result, error) {
	if err := opt.Partition.Validate(); err != nil {
		return sim.Result{}, err
	}
	capA, capB, capO := opt.Partition.Split(opt.Machine.GlobalBuffer)
	k := w.kernel(capA, capB)
	cfg := &core.Config{
		// L-stationary dataflow: contracted J, K advance inside L, the
		// un-contracted I innermost.
		LoopOrder: []int{GramDimJ, GramDimK, GramDimL, GramDimI},
		Strategy:  opt.Strategy,
	}
	if opt.Strategy == core.Static {
		cfg.InitialSize = gramStaticShape(w, capA)
	}
	e, err := core.NewEnumerator(k, cfg)
	if err != nil {
		return sim.Result{}, err
	}

	res := sim.Result{Name: w.Name}
	pe := sim.NewPEArray(opt.Machine.PEs)
	out := newOutputModel(&Workload{GZ: w.GZ}, capO)
	mt := w.MicroTile
	pendingLoad := [2]int64{}
	var extractTotal float64
	var inputTraffic int64
	prog := obs.Active()

	for {
		t, ok, err := e.Next()
		if err != nil {
			return sim.Result{}, err
		}
		if !ok {
			break
		}
		res.Tasks++
		prog.TaskDone(1)
		for oi := 0; oi < 2; oi++ {
			if t.Rebuilt[oi] {
				pendingLoad[oi] = t.OpFootprint[oi]
			}
		}
		if t.Empty {
			res.EmptyTasks++
			continue
		}
		var taskBytes int64
		for oi := 0; oi < 2; oi++ {
			if pendingLoad[oi] > 0 {
				taskBytes += pendingLoad[oi]
				if oi == 0 {
					res.Traffic.A += pendingLoad[oi]
				} else {
					res.Traffic.B += pendingLoad[oi]
				}
				pendingLoad[oi] = 0
			}
		}
		inputTraffic += taskBytes

		gr := func(d int) kernels.Range {
			return kernels.Range{Lo: t.Ranges[d].Lo * mt, Hi: t.Ranges[d].Hi * mt}
		}
		tr := kernels.RestrictedGram(w.X, gr(GramDimI), gr(GramDimL), gr(GramDimJ), gr(GramDimK))
		res.MACCs += tr.MACCs
		res.IntersectOps += tr.ScannedA + tr.MACCs
		for _, rw := range tr.Rows {
			pe.Assign(sim.ComputeCycles(opt.Intersect, int64(rw.AElems)+rw.MACCs, rw.MACCs))
		}

		out.touch([4]int{t.Ranges[GramDimI].Lo, t.Ranges[GramDimI].Hi, t.Ranges[GramDimL].Lo, t.Ranges[GramDimL].Hi}, tr.OutputNNZ)

		extractTotal += extractor.TaskCost(opt.Extractor, &t).Total()
	}
	out.flush()
	res.Traffic.Z = out.zTotal

	if res.MACCs != w.MACCs {
		return sim.Result{}, fmt.Errorf("accel: %s: gram partition covered %d MACCs, kernel has %d", w.Name, res.MACCs, w.MACCs)
	}
	res.DRAMCycles = opt.Machine.DRAMCycles(res.Traffic.Total())
	res.ComputeCycles = pe.MaxBusy()
	res.ExtractCycles = extractTotal
	res.BufferAccessBytes = inputTraffic + res.Traffic.Z + res.MACCs*PartialBytes
	res.NoCBytes = inputTraffic
	return res, nil
}

// gramStaticShape picks a dense-safe cube for the S-U-C baseline: the
// worst-case dense (l, j, k) tile must fit the partition.
func gramStaticShape(w *GramWorkload, capOp int64) []int {
	mt := w.MicroTile
	denseTile := float64(mt*mt*mt) * (tensor.MetaBytes + tensor.ValueBytes)
	side := int(math.Cbrt(float64(capOp) / denseTile))
	if side < 1 {
		side = 1
	}
	return []int{side, side, side, side}
}
