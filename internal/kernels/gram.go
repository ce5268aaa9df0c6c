package kernels

import (
	"drt/internal/par"
	"drt/internal/tensor"
)

// gramSlicePair intersects slices a and b of χ (root positions): the two
// slices' j fibers are merged and matching leaves dot-producted. It returns
// the accumulated dot product and the effectual MACCs of the intersection.
func gramSlicePair(x *tensor.CSF3, a, b int) (dot float64, maccs int64) {
	_, alo, ahi := x.Slice(a)
	_, blo, bhi := x.Slice(b)
	pa, pb := alo, blo
	for pa < ahi && pb < bhi {
		ja, jb := x.MidCoords[pa], x.MidCoords[pb]
		switch {
		case ja == jb:
			v, s := tensor.Dot(x.LeafFiber(pa), x.LeafFiber(pb))
			dot += v
			maccs += int64(s.Matches)
			pa++
			pb++
		case ja < jb:
			pa++
		default:
			pb++
		}
	}
	return dot, maccs
}

// Gram computes G_il = Σ_jk χ_ijk · χ_ljk, the Tucker-decomposition
// sub-routine of Sec. 5.1.2, directly on the CSF representation: for every
// pair of i slices, matching (j, k) coordinates are intersected fiber by
// fiber. The result is the symmetric I×I Gram matrix.
func Gram(x *tensor.CSF3) (*tensor.CSR, Stats) {
	var st Stats
	out := tensor.NewCOO(x.I, x.I)
	n := len(x.RootCoords)
	for a := 0; a < n; a++ {
		ia, _, _ := x.Slice(a)
		for b := a; b < n; b++ {
			ib, _, _ := x.Slice(b)
			dot, maccs := gramSlicePair(x, a, b)
			st.MACCs += maccs
			if dot != 0 {
				out.Append(ia, ib, dot)
				if ia != ib {
					out.Append(ib, ia, dot)
					st.MACCs += maccs // symmetric pair counted once per output point
				}
			}
		}
	}
	z := tensor.FromCOO(out)
	st.OutputNNZ = int64(z.NNZ())
	return z, st
}

// GramParallel is Gram with the outer slice-pair loop mapped over row
// blocks of the root dimension. Each block emits its COO triples in the
// same (a, b) order the sequential loop visits, blocks are concatenated in
// block order, and every pair's fiber-intersection accumulation order is
// unchanged — so the assembled matrix is bit-identical to Gram's.
// workers < 1 selects one per CPU; workers == 1 falls through.
func GramParallel(x *tensor.CSF3, workers int) (*tensor.CSR, Stats) {
	workers = par.Workers(workers)
	n := len(x.RootCoords)
	if workers <= 1 || n < 2 {
		return Gram(x)
	}
	// Over-decompose: block bi covers root positions [bi*n/nb, (bi+1)*n/nb),
	// and early blocks pair against the whole tail, so work per block is
	// uneven — small blocks let the pool rebalance.
	nb := workers * 4
	if nb > n {
		nb = n
	}
	type part struct {
		is, js []int
		vs     []float64
		maccs  int64
	}
	parts, _ := par.Map(workers, nb, func(bi int) (part, error) {
		a0, a1 := bi*n/nb, (bi+1)*n/nb
		var p part
		for a := a0; a < a1; a++ {
			ia, _, _ := x.Slice(a)
			for b := a; b < n; b++ {
				ib, _, _ := x.Slice(b)
				dot, maccs := gramSlicePair(x, a, b)
				p.maccs += maccs
				if dot != 0 {
					p.is = append(p.is, ia)
					p.js = append(p.js, ib)
					p.vs = append(p.vs, dot)
					if ia != ib {
						p.is = append(p.is, ib)
						p.js = append(p.js, ia)
						p.vs = append(p.vs, dot)
						p.maccs += maccs
					}
				}
			}
		}
		return p, nil
	})
	var st Stats
	out := tensor.NewCOO(x.I, x.I)
	for _, p := range parts {
		for t := range p.is {
			out.Append(p.is[t], p.js[t], p.vs[t])
		}
		st.MACCs += p.maccs
	}
	z := tensor.FromCOO(out)
	st.OutputNNZ = int64(z.NNZ())
	return z, st
}

// GramViaMatricize computes the same kernel as G = X·Xᵀ on the mode-1
// matricization X of χ, with the SpMSpM Gustavson kernel. It is a second,
// independent implementation for cross-validating Gram; no simulator
// takes it (accel.RunGram tiles the 4-D kernel on χ directly).
func GramViaMatricize(x *tensor.CSF3) (*tensor.CSR, Stats) {
	m := x.Matricize()
	return Gustavson(m, m.Transpose())
}
