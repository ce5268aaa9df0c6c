package kernels

import (
	"math/rand"
	"testing"

	"drt/internal/gen"
	"drt/internal/tensor"
)

func randomDense(rng *rand.Rand, rows, cols int) *tensor.Dense {
	d := tensor.NewDense(rows, cols)
	for i := range d.V {
		d.V[i] = rng.Float64() + 0.5
	}
	return d
}

func TestSpMMMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := rng.Intn(15)+1, rng.Intn(15)+1, rng.Intn(15)+1
		a := gen.Uniform(m, k, m*k/2+1, rng.Int63())
		b := randomDense(rng, k, n)
		z, st := SpMM(a, b)
		want := a.ToDense().MatMul(b)
		if !z.EqualApprox(want, 1e-9) {
			t.Fatalf("trial %d: spmm != dense", trial)
		}
		if st.MACCs != int64(a.NNZ())*int64(n) {
			t.Fatalf("trial %d: MACCs = %d, want %d", trial, st.MACCs, a.NNZ()*n)
		}
	}
}

func TestExtraKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	a := gen.Uniform(3, 4, 5, 1)
	SpMM(a, tensor.NewDense(5, 2))
}
