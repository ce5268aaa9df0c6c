package accel

import (
	"fmt"
	"math"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/kernels"
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
	GZ        *tiling.Grid
	Z         *tensor.CSR
	MACCs     int64
}

// NewGramWorkload pre-processes a 3-tensor for the Gram experiments with
// the default configuration (T-UC output tiles, sequential reference
// kernel).
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
		G3:        tiling.NewSummaryGrid3(x, mt, mt, mt),
		GZ:        tiling.NewSummaryGrid(z, mt, mt, cfg.Format, tiling.Auto),
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

// space returns the Gram kernel's task space under opt: intersects
// stream each coordinate and charge each MACC once, scanned + MACCs, and
// the reference Gram matrix's grid is indexed by I and L.
func (w *GramWorkload) space(opt *EngineOptions) *taskSpace {
	mt := w.MicroTile
	work := func(r []core.Range) (kernels.TaskResult, int64) {
		tr := kernels.RestrictedGram(w.X, coords(r[GramDimI], mt), coords(r[GramDimL], mt),
			coords(r[GramDimJ], mt), coords(r[GramDimK], mt))
		return tr, tr.ScannedA + tr.MACCs
	}
	return &taskSpace{kernel: w.kernel(opt.CapA, opt.CapB), work: work,
		out: w.GZ, outDims: [2]int{GramDimI, GramDimL}, maccs: w.MACCs}
}

// RunGram simulates the Gram kernel: DRT (or static tiling) must now grow
// across three dimensions per operand, two of them contracted
// (Sec. 6.1.3). It is an EngineOptions preset on the ExTensor-OP machine,
// walked by the same engine loop and priced by the same per-task replay
// as RunTasks. The dataflow is L-stationary: the contracted J and K
// advance inside L, the uncontracted I innermost. The S-U-C baseline
// (Strategy Static) tiles with gramStaticShape's dense-safe cube.
func RunGram(w *GramWorkload, opt GramOptions) (sim.Result, error) {
	if err := opt.Partition.Validate(); err != nil {
		return sim.Result{}, err
	}
	capA, capB, capO := opt.Partition.Split(opt.Machine.GlobalBuffer)
	eo := EngineOptions{
		Machine: opt.Machine, CapA: capA, CapB: capB, CapO: capO,
		LoopOrder: []int{GramDimJ, GramDimK, GramDimL, GramDimI},
		Strategy:  opt.Strategy,
		Intersect: opt.Intersect,
		Extractor: opt.Extractor,
	}
	if opt.Strategy == core.Static {
		eo.InitialSize = gramStaticShape(w, capA)
	}
	res, _, err := runBelow(w.Name, w.space(&eo), eo, nil, 0)
	return res, err
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
