package tensor

import "fmt"

// Dense is a row-major dense matrix used as the ground-truth oracle in
// tests: sparse kernels are validated against dense arithmetic.
type Dense struct {
	Rows, Cols int
	V          []float64
}

// NewDense returns a zeroed dense matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, V: make([]float64, rows*cols)}
}

// At returns the value at (i, j).
func (d *Dense) At(i, j int) float64 { return d.V[i*d.Cols+j] }

// Set stores v at (i, j).
func (d *Dense) Set(i, j int, v float64) { d.V[i*d.Cols+j] = v }

// ToDense expands a compressed matrix.
func (c *CSR) ToDense() *Dense {
	d := NewDense(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for p := c.Ptr[i]; p < c.Ptr[i+1]; p++ {
			d.Set(i, c.Idx[p], c.Val[p])
		}
	}
	return d
}

// ToCSR compresses a dense matrix, dropping exact zeros.
func (d *Dense) ToCSR() *CSR {
	m := NewCOO(d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if v := d.At(i, j); v != 0 {
				m.Append(i, j, v)
			}
		}
	}
	return FromCOO(m)
}

// MatMul returns the dense product d × o.
func (d *Dense) MatMul(o *Dense) *Dense {
	if d.Cols != o.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d × %dx%d", d.Rows, d.Cols, o.Rows, o.Cols))
	}
	z := NewDense(d.Rows, o.Cols)
	for i := 0; i < d.Rows; i++ {
		for k := 0; k < d.Cols; k++ {
			a := d.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < o.Cols; j++ {
				z.V[i*z.Cols+j] += a * o.At(k, j)
			}
		}
	}
	return z
}

// EqualApprox reports element-wise equality within tol.
func (d *Dense) EqualApprox(o *Dense, tol float64) bool {
	if d.Rows != o.Rows || d.Cols != o.Cols {
		return false
	}
	for p := range d.V {
		diff := d.V[p] - o.V[p]
		if diff < -tol || diff > tol {
			return false
		}
	}
	return true
}
