package drt

import (
	"fmt"

	"drt/internal/core"
	"drt/internal/kernels"
	"drt/internal/tensor"
	"drt/internal/tiling"
)

// Matrix is a sparse matrix in CSR form; construct one with MatrixFromCOO
// or obtain one from Multiply.
type Matrix = tensor.CSR

// MatrixFromCOO builds a sparse matrix from coordinate triples; duplicate
// points are summed and explicit zeros dropped.
func MatrixFromCOO(rows, cols int, is, js []int, vs []float64) (*Matrix, error) {
	if len(is) != len(js) || len(is) != len(vs) {
		return nil, fmt.Errorf("drt: coordinate slices have lengths %d/%d/%d", len(is), len(js), len(vs))
	}
	m := tensor.NewCOO(rows, cols)
	for p := range is {
		if is[p] < 0 || is[p] >= rows || js[p] < 0 || js[p] >= cols {
			return nil, fmt.Errorf("drt: point (%d,%d) outside %dx%d", is[p], js[p], rows, cols)
		}
		m.Append(is[p], js[p], vs[p])
	}
	return tensor.FromCOO(m), nil
}

// Multiply returns the exact product A·B (row-wise Gustavson) and the
// number of effectual multiply-accumulates performed.
func Multiply(a, b *Matrix) (*Matrix, int64, error) {
	if a.Cols != b.Rows {
		return nil, 0, fmt.Errorf("drt: cannot multiply %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	z, st := kernels.Gustavson(a, b)
	return z, st.MACCs, nil
}

// Strategy selects the tile-growth heuristic (Algorithm 2's
// selectDimToGrow).
type Strategy = core.Strategy

// Growth strategies. GreedyContractedFirst is the paper's default; Static
// disables growth, reproducing a static uniform (S-U-C) tiling.
const (
	GreedyContractedFirst = core.GreedyContractedFirst
	Alternating           = core.Alternating
	Static                = core.Static
)

// PlanConfig configures PlanSpMSpM and PlanSpMM.
type PlanConfig struct {
	// MicroTile is the edge of the statically built square micro tiles
	// (the paper uses 32). Defaults to 32.
	MicroTile int
	// BudgetA and BudgetB are the fast-memory bytes available to hold the
	// current tile of each operand (e.g. cache or scratchpad partitions).
	BudgetA, BudgetB int64
	// Strategy defaults to GreedyContractedFirst.
	Strategy Strategy
	// AStationary selects the I→K→J dataflow, which keeps A's tiles
	// long-lived. The zero value selects J→K→I with B's tiles long-lived
	// (the paper's ExTensor-OP-DRT order).
	AStationary bool
}

// TaskRange is a half-open coordinate interval.
type TaskRange struct {
	Lo, Hi int
}

// PlanTask is one Einsum task of the plan: with A[I,K] and B[K,J] tiles
// resident in fast memory, it computes Z[I,J] += A[I,K]·B[K,J] over the
// given coordinate ranges.
type PlanTask struct {
	I, J, K TaskRange
	// ANonZeros and BNonZeros are the tile occupancies; Empty tasks
	// (either tile unoccupied) are excluded from plans.
	ANonZeros, BNonZeros int64
	// ABytes and BBytes are the tile footprints in the micro-tiled
	// representation.
	ABytes, BBytes int64
}

// PlanStats summarizes the reuse a plan achieves.
type PlanStats struct {
	Tasks int
	// LoadedABytes/LoadedBBytes are the bytes fetched into fast memory
	// across the plan (tiles kept resident across consecutive tasks are
	// charged once).
	LoadedABytes, LoadedBBytes int64
	// OnePassABytes/OnePassBBytes are the read-once lower bounds.
	OnePassABytes, OnePassBBytes int64
}

// Plan is the output of PlanSpMSpM and PlanSpMM.
type Plan struct {
	Tasks []PlanTask
	Stats PlanStats
}

// PlanSpMSpM tiles the multiplication A·B with dynamic reflexive tiling:
// it returns the sequence of Einsum tasks whose tiles maximize fast-memory
// occupancy under the given budgets, with co-tiled (matching) K ranges.
func PlanSpMSpM(a, b *Matrix, cfg PlanConfig) (*Plan, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("drt: cannot multiply %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return plan(a, b.Cols, cfg, func(mt int) (core.View, int64) {
		gb := tiling.NewSummaryGrid(b, mt, mt, tiling.TUC, tiling.Auto)
		return core.MatrixView{G: gb}, gb.TotalFootprint()
	})
}

// plan is the one DRT planner behind PlanSpMSpM and PlanSpMM, which
// differ only in operand B: bView returns B's view at micro-tile edge mt
// and B's read-once bytes, and bCols is B's width.
func plan(a *Matrix, bCols int, cfg PlanConfig, bView func(mt int) (core.View, int64)) (*Plan, error) {
	mt := cfg.MicroTile
	if mt == 0 {
		mt = 32
	}
	if mt < 1 {
		return nil, fmt.Errorf("drt: micro tile %d", mt)
	}
	if cfg.BudgetA <= 0 || cfg.BudgetB <= 0 {
		return nil, fmt.Errorf("drt: budgets must be positive, got %d/%d", cfg.BudgetA, cfg.BudgetB)
	}
	ga := tiling.NewSummaryGrid(a, mt, mt, tiling.TUC, tiling.Auto)
	gaR, gaC := ga.Extents()
	vb, onePassB := bView(mt)
	k := &core.Kernel{
		DimNames:   []string{"I", "J", "K"},
		Contracted: []bool{false, false, true},
		Extent:     []int{gaR, (bCols + mt - 1) / mt, gaC},
		Operands: []core.Operand{
			{Name: "A", Dims: []int{0, 2}, View: core.MatrixView{G: ga}, Capacity: cfg.BudgetA},
			{Name: "B", Dims: []int{2, 1}, View: vb, Capacity: cfg.BudgetB},
		},
	}
	loop := []int{1, 2, 0} // J → K → I: B stationary
	if cfg.AStationary {
		loop = []int{0, 2, 1} // I → K → J: A stationary
	}
	e, err := core.NewEnumerator(k, &core.Config{LoopOrder: loop, Strategy: cfg.Strategy})
	if err != nil {
		return nil, err
	}
	p := &Plan{}
	p.Stats.OnePassABytes = ga.TotalFootprint()
	p.Stats.OnePassBBytes = onePassB
	clampRange := func(r core.Range, max int) TaskRange {
		hi := r.Hi * mt
		if hi > max {
			hi = max
		}
		return TaskRange{Lo: r.Lo * mt, Hi: hi}
	}
	for {
		t, ok, err := e.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if t.Empty {
			continue
		}
		p.Tasks = append(p.Tasks, PlanTask{
			I:         clampRange(t.Ranges[0], a.Rows),
			J:         clampRange(t.Ranges[1], bCols),
			K:         clampRange(t.Ranges[2], a.Cols),
			ANonZeros: t.OpNNZ[0],
			BNonZeros: t.OpNNZ[1],
			ABytes:    t.OpFootprint[0],
			BBytes:    t.OpFootprint[1],
		})
		if t.Rebuilt[0] {
			p.Stats.LoadedABytes += t.OpFootprint[0]
		}
		if t.Rebuilt[1] {
			p.Stats.LoadedBBytes += t.OpFootprint[1]
		}
	}
	p.Stats.Tasks = len(p.Tasks)
	return p, nil
}

// Execute runs a plan against its operands with the range-restricted
// reference kernel and returns the product — useful for verifying that a
// plan covers the full multiplication. The result is identical to
// Multiply(a, b).
func (p *Plan) Execute(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("drt: cannot multiply %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := tensor.NewCOO(a.Rows, b.Cols)
	spa := kernels.NewSPA(b.Cols)
	for _, t := range p.Tasks {
		for i := t.I.Lo; i < t.I.Hi && i < a.Rows; i++ {
			lo, hi := a.RowRange(i, t.K.Lo, t.K.Hi)
			if lo == hi {
				continue
			}
			spa.Reset()
			for pi := lo; pi < hi; pi++ {
				k := a.Idx[pi]
				blo, bhi := b.RowRange(k, t.J.Lo, t.J.Hi)
				for q := blo; q < bhi; q++ {
					spa.Add(b.Idx[q], a.Val[pi]*b.Val[q])
				}
			}
			cols, vals := spa.Drain()
			for p2, j := range cols {
				if vals[p2] != 0 {
					out.Append(i, j, vals[p2])
				}
			}
		}
	}
	return tensor.FromCOO(out), nil
}
