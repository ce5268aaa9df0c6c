package drt

import (
	"fmt"

	"drt/internal/core"
	"drt/internal/kernels"
	"drt/internal/tensor"
)

// DenseMatrix is a row-major dense matrix, the second operand of SpMM.
type DenseMatrix = tensor.Dense

// NewDenseMatrix returns a zeroed dense matrix.
func NewDenseMatrix(rows, cols int) *DenseMatrix { return tensor.NewDense(rows, cols) }

// MultiplySpMM returns the exact product A·B of a sparse A and dense B,
// with the effectual MACC count.
func MultiplySpMM(a *Matrix, b *DenseMatrix) (*DenseMatrix, int64, error) {
	if a.Cols != b.Rows {
		return nil, 0, fmt.Errorf("drt: cannot multiply %dx%d by dense %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	z, st := kernels.SpMM(a, b)
	return z, st.MACCs, nil
}

// PlanSpMM tiles the sparse-times-dense multiplication Z = A·B with DRT:
// A's tiles grow by occupancy while B's — being dense — cost their full
// coordinate area, so tile shapes adapt to A's sparsity under B's
// footprint pressure. bCols is B's width.
func PlanSpMM(a *Matrix, bCols int, cfg PlanConfig) (*Plan, error) {
	if bCols < 1 {
		return nil, fmt.Errorf("drt: dense operand width %d", bCols)
	}
	return plan(a, bCols, cfg, func(mt int) (core.View, int64) {
		return core.DenseView{Rows: a.Cols, Cols: bCols, TileH: mt, TileW: mt, ElemBytes: tensor.ValueBytes},
			int64(a.Cols) * int64(bCols) * tensor.ValueBytes
	})
}

// ExecuteSpMM runs an SpMM plan against its operands and returns the dense
// product, identical to MultiplySpMM(a, b).
func (p *Plan) ExecuteSpMM(a *Matrix, b *DenseMatrix) (*DenseMatrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("drt: cannot multiply %dx%d by dense %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	z := tensor.NewDense(a.Rows, b.Cols)
	for _, t := range p.Tasks {
		for i := t.I.Lo; i < t.I.Hi && i < a.Rows; i++ {
			lo, hi := a.RowRange(i, t.K.Lo, t.K.Hi)
			for pi := lo; pi < hi; pi++ {
				k := a.Idx[pi]
				av := a.Val[pi]
				for j := t.J.Lo; j < t.J.Hi && j < b.Cols; j++ {
					z.V[i*z.Cols+j] += av * b.At(k, j)
				}
			}
		}
	}
	return z, nil
}
