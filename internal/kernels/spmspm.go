// Package kernels implements exact reference implementations of the
// paper's tensor kernels: SpMSpM under all three dataflows (row-wise
// Gustavson, inner product, outer product) and the higher-order Gram
// kernel, each returning both the result and the effectual-work statistics
// (MACC counts) that the paper's arithmetic-intensity metric is built on.
// The accelerator simulators read only counts, so their kernels — the
// range-restricted task kernel, the PE slab pricing and the structural
// product count of workload preparation — compute no values.
package kernels

import (
	"fmt"

	"drt/internal/tensor"
)

// Stats records the effectual work of a kernel execution.
type Stats struct {
	MACCs     int64 // effectual multiply-accumulates
	OutputNNZ int64 // stored non-zeros in the result
}

// Gustavson computes Z = A·B row-wise (the MatRaptor/GAMMA dataflow) using
// a sparse accumulator per output row. It is the value-returning reference:
// the public Multiply returns it, and drtvalidate and the kernel tests
// check other products against it, mirroring the paper's validation
// against Intel MKL. Per-row emission uses
// the SPA's sorted-run merge, so the inner loops are free of comparison
// sorts and per-row allocations.
func Gustavson(a, b *tensor.CSR) (*tensor.CSR, Stats) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("kernels: spmspm shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	z := &tensor.CSR{Rows: a.Rows, Cols: b.Cols, Ptr: make([]int, a.Rows+1)}
	spa := NewSPA(b.Cols)
	var st Stats
	for i := 0; i < a.Rows; i++ {
		spa.Reset()
		fa := a.Row(i)
		for p, k := range fa.Coords {
			av := fa.Vals[p]
			fb := b.Row(k)
			st.MACCs += int64(fb.Len())
			for q, j := range fb.Coords {
				spa.Add(j, av*fb.Vals[q])
			}
		}
		for _, j := range spa.SortedCols() {
			if spa.acc[j] == 0 {
				continue // numerically cancelled
			}
			z.Idx = append(z.Idx, j)
			z.Val = append(z.Val, spa.acc[j])
		}
		z.Ptr[i+1] = len(z.Idx)
	}
	st.OutputNNZ = int64(z.NNZ())
	return z, st
}

// InnerProduct computes Z = A·B with the output-stationary dataflow: a dot
// product (coordinate intersection) per output point. It additionally
// returns the intersection statistics that drive ExTensor's intersection
// unit cycle model. bT must be the transpose of B (so each column of B is a
// contiguous fiber).
func InnerProduct(a, bT *tensor.CSR) (*tensor.CSR, Stats, tensor.IntersectStats) {
	if a.Cols != bT.Cols {
		panic(fmt.Sprintf("kernels: inner product shape mismatch: A is %dx%d, Bᵀ is %dx%d", a.Rows, a.Cols, bT.Rows, bT.Cols))
	}
	var st Stats
	var ist tensor.IntersectStats
	z := &tensor.CSR{Rows: a.Rows, Cols: bT.Rows, Ptr: make([]int, a.Rows+1)}
	// Precompute the occupied rows of Bᵀ once instead of re-scanning all
	// bT.Rows (including the empty ones) for every row of A — on
	// hyper-sparse operands almost every candidate column is empty.
	occ := make([]int, 0, bT.Rows)
	for j := 0; j < bT.Rows; j++ {
		if bT.Ptr[j+1] > bT.Ptr[j] {
			occ = append(occ, j)
		}
	}
	for i := 0; i < a.Rows; i++ {
		fa := a.Row(i)
		if fa.Len() == 0 {
			z.Ptr[i+1] = len(z.Idx)
			continue
		}
		for _, j := range occ {
			fb := bT.Row(j)
			v, s := tensor.Dot(fa, fb)
			ist.Comparisons += s.Comparisons
			ist.Matches += s.Matches
			st.MACCs += int64(s.Matches)
			if v != 0 {
				z.Idx = append(z.Idx, j)
				z.Val = append(z.Val, v)
			}
		}
		z.Ptr[i+1] = len(z.Idx)
	}
	st.OutputNNZ = int64(z.NNZ())
	return z, st, ist
}

// OuterProduct computes Z = A·B with the contraction-stationary dataflow
// (OuterSPACE/SpArch): for each k, the outer product of A's column k and
// B's row k produces a rank-1 partial, and all partials are merged. aT must
// be the transpose of A. The returned merge count is the number of partial
// products inserted, i.e. the multiply-phase output volume before merging.
func OuterProduct(aT, b *tensor.CSR) (*tensor.CSR, Stats, int64) {
	if aT.Rows != b.Rows {
		panic(fmt.Sprintf("kernels: outer product shape mismatch: Aᵀ is %dx%d, B is %dx%d", aT.Rows, aT.Cols, b.Rows, b.Cols))
	}
	var st Stats
	var partials int64
	out := tensor.NewCOO(aT.Cols, b.Cols)
	for k := 0; k < aT.Rows; k++ {
		fa := aT.Row(k) // column k of A: row coordinates i
		fb := b.Row(k)  // row k of B: column coordinates j
		for p, i := range fa.Coords {
			for q, j := range fb.Coords {
				st.MACCs++
				partials++
				out.Append(i, j, fa.Vals[p]*fb.Vals[q])
			}
		}
	}
	z := tensor.FromCOO(out)
	st.OutputNNZ = int64(z.NNZ())
	return z, st, partials
}

// EffectualMACCs returns the number of effectual multiply-accumulates of
// A·B without materializing the product: Σ_k nnz(A·,k)·nnz(Bk,·). aT must
// be the transpose of A. The paper notes this count is dataflow-invariant.
func EffectualMACCs(aT, b *tensor.CSR) int64 {
	if aT.Rows != b.Rows {
		panic("kernels: EffectualMACCs shape mismatch")
	}
	var n int64
	for k := 0; k < aT.Rows; k++ {
		n += int64(aT.Ptr[k+1]-aT.Ptr[k]) * int64(b.Ptr[k+1]-b.Ptr[k])
	}
	return n
}
