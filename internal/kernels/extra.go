package kernels

import (
	"fmt"

	"drt/internal/tensor"
)

// SpMM computes Z = A·B where A is sparse and B dense. The result is
// dense (every row of Z with a non-empty A row is generally dense).
func SpMM(a *tensor.CSR, b *tensor.Dense) (*tensor.Dense, Stats) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("kernels: spmm shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var st Stats
	z := tensor.NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		f := a.Row(i)
		for p, k := range f.Coords {
			av := f.Vals[p]
			for j := 0; j < b.Cols; j++ {
				z.V[i*z.Cols+j] += av * b.At(k, j)
			}
			st.MACCs += int64(b.Cols)
		}
	}
	for _, v := range z.V {
		if v != 0 {
			st.OutputNNZ++
		}
	}
	return z, st
}
