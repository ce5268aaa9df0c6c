package tensor

import (
	"fmt"
	"math"
	"sync"
)

// CSR is a compressed sparse row matrix (T-UC in the paper's taxonomy):
// Ptr is the segment array (len Rows+1), Idx the column-coordinate array
// and Val the data array. Row i occupies positions Ptr[i]..Ptr[i+1] and
// its column coordinates are strictly increasing.
type CSR struct {
	Rows, Cols int
	Ptr        []int
	Idx        []int
	Val        []float64
}

// NewCSR returns an empty CSR matrix with the given shape.
func NewCSR(rows, cols int) *CSR {
	return &CSR{Rows: rows, Cols: cols, Ptr: make([]int, rows+1)}
}

// FromCOO converts a coordinate list into CSR, summing duplicate points.
// The input is sorted in place.
func FromCOO(m *COO) *CSR {
	m.sortRowMajor()
	c := &CSR{
		Rows: m.Rows,
		Cols: m.Cols,
		Ptr:  make([]int, m.Rows+1),
		Idx:  make([]int, 0, m.Len()),
		Val:  make([]float64, 0, m.Len()),
	}
	row := 0
	for t := 0; t < m.Len(); {
		i, j := m.I[t], m.J[t]
		v := m.V[t]
		t++
		for t < m.Len() && m.I[t] == i && m.J[t] == j {
			v += m.V[t] // sum duplicates
			t++
		}
		if v == 0 {
			continue // an explicit zero is not a stored point
		}
		for row <= i {
			c.Ptr[row] = len(c.Idx)
			row++
		}
		c.Idx = append(c.Idx, j)
		c.Val = append(c.Val, v)
	}
	for row <= m.Rows {
		c.Ptr[row] = len(c.Idx)
		row++
	}
	return c
}

// NNZ returns the number of stored non-zeros (the matrix occupancy).
func (c *CSR) NNZ() int { return len(c.Idx) }

// Density returns the fraction of points that are non-zero.
func (c *CSR) Density() float64 {
	if c.Rows == 0 || c.Cols == 0 {
		return 0
	}
	return float64(c.NNZ()) / (float64(c.Rows) * float64(c.Cols))
}

// Footprint returns the modeled byte footprint of the representation.
func (c *CSR) Footprint() int64 { return FootprintCSR(c.Rows, c.NNZ()) }

// Row returns the fiber for row i: its column coordinates and values.
func (c *CSR) Row(i int) Fiber {
	lo, hi := c.Ptr[i], c.Ptr[i+1]
	return Fiber{Coords: c.Idx[lo:hi], Vals: c.Val[lo:hi]}
}

// RowRange returns the positions [lo, hi) within row i whose column
// coordinates fall inside [c0, c1). It binary-searches the coordinate array,
// mirroring the segment/coordinate lookups the tile extractor performs.
// This is the innermost lookup of the restricted kernels — the micro-tile
// task loops call it for every (row, window) pair — so it early-outs on
// windows that miss the row's coordinate span entirely (the common case
// for tile-sized windows over sparse rows) and uses open-coded lower
// bounds instead of sort.SearchInts closures. The window bounds are
// clamped to [0, Cols]: stored coordinates lie in [0, Cols), so the clamp
// preserves the result.
func (c *CSR) RowRange(i, c0, c1 int) (lo, hi int) {
	s, e := c.Ptr[i], c.Ptr[i+1]
	if c0 < 0 {
		c0 = 0
	}
	if c1 > c.Cols {
		c1 = c.Cols
	}
	if s == e || c1 <= c0 || c.Idx[e-1] < c0 {
		return e, e
	}
	if c.Idx[s] >= c1 {
		return s, s
	}
	lo = lowerBound(c.Idx, s, e, c0)
	hi = lowerBound(c.Idx, lo, e, c1)
	return lo, hi
}

// lowerBound returns the first position in idx[lo:hi) whose value is >= v
// (hi when none is), assuming idx ascending over that window. Windows are
// row fragments whose typical length is a handful of elements, so the
// search bisects only until the window is short and finishes with a
// branch-predictable linear scan.
func lowerBound(idx []int, lo, hi, v int) int {
	for hi-lo > 16 {
		m := int(uint(lo+hi) >> 1)
		if idx[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for lo < hi && idx[lo] < v {
		lo++
	}
	return lo
}

// At returns the value at (i, j), or 0 when the point is not stored.
func (c *CSR) At(i, j int) float64 {
	lo, hi := c.RowRange(i, j, j+1)
	if lo < hi {
		return c.Val[lo]
	}
	return 0
}

// transposeScratch pools the per-output-row insertion cursors of the
// scatter pass. Transposes run concurrently under the experiment worker
// pool (MatRaptor's untiled model transposes A per cell), so the scratch
// is a sync.Pool rather than a package-level rolling buffer.
var transposeScratch sync.Pool // *[]int

func getTransposeScratch(n int) *[]int {
	p, _ := transposeScratch.Get().(*[]int)
	if p == nil || cap(*p) < n {
		s := make([]int, n)
		p = &s
	}
	*p = (*p)[:n]
	return p
}

// Transpose returns the transposed matrix, still in row-major form. A CSR
// of the transpose is identical in memory layout to a CSC of the original,
// so this is also the CSR→CSC conversion kernel.
func (c *CSR) Transpose() *CSR {
	return c.TransposeInto(&CSR{})
}

// TransposeInto transposes c into t, reusing t's slices when their
// capacity suffices, and returns t. Together with the pooled scatter
// cursors this makes repeated transposition allocation-free in the steady
// state (pinned by TestTransposeIntoAllocFree).
func (c *CSR) TransposeInto(t *CSR) *CSR {
	t.Rows, t.Cols = c.Cols, c.Rows
	t.Ptr = growSlice(t.Ptr, c.Cols+1)
	clear(t.Ptr)
	t.Idx = growSlice(t.Idx, c.NNZ())
	t.Val = growSlice(t.Val, c.NNZ())
	// Counting pass.
	for _, j := range c.Idx {
		t.Ptr[j+1]++
	}
	for j := 0; j < c.Cols; j++ {
		t.Ptr[j+1] += t.Ptr[j]
	}
	// Scatter pass; next tracks the insertion cursor per output row.
	np := getTransposeScratch(c.Cols)
	next := *np
	for j := 0; j < c.Cols; j++ {
		next[j] = t.Ptr[j]
	}
	for i := 0; i < c.Rows; i++ {
		for p := c.Ptr[i]; p < c.Ptr[i+1]; p++ {
			j := c.Idx[p]
			q := next[j]
			next[j]++
			t.Idx[q] = i
			t.Val[q] = c.Val[p]
		}
	}
	transposeScratch.Put(np)
	return t
}

// growSlice returns s resized to length n, reallocating only when the
// capacity is insufficient.
func growSlice[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// ToCSC converts to an explicit column-major representation.
func (c *CSR) ToCSC() *CSC {
	t := c.Transpose()
	return &CSC{Rows: c.Rows, Cols: c.Cols, Ptr: t.Ptr, Idx: t.Idx, Val: t.Val}
}

// ToCOO expands the matrix back into a coordinate list in row-major order.
func (c *CSR) ToCOO() *COO {
	m := NewCOO(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for p := c.Ptr[i]; p < c.Ptr[i+1]; p++ {
			m.Append(i, c.Idx[p], c.Val[p])
		}
	}
	return m
}

// Equal reports whether two matrices have identical shape and stored
// points. Values are compared exactly.
func (c *CSR) Equal(o *CSR) bool {
	if c.Rows != o.Rows || c.Cols != o.Cols || c.NNZ() != o.NNZ() {
		return false
	}
	for i := range c.Ptr {
		if c.Ptr[i] != o.Ptr[i] {
			return false
		}
	}
	for p := range c.Idx {
		if c.Idx[p] != o.Idx[p] || c.Val[p] != o.Val[p] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether two matrices have the same sparsity pattern
// and values within tol of each other.
func (c *CSR) EqualApprox(o *CSR, tol float64) bool {
	if c.Rows != o.Rows || c.Cols != o.Cols || c.NNZ() != o.NNZ() {
		return false
	}
	for i := range c.Ptr {
		if c.Ptr[i] != o.Ptr[i] {
			return false
		}
	}
	for p := range c.Idx {
		if c.Idx[p] != o.Idx[p] {
			return false
		}
		d := c.Val[p] - o.Val[p]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

// RowNNZVariation returns the coefficient of variation (stddev/mean) of the
// per-row non-zero counts; Fig. 8 sorts workloads by this statistic.
func (c *CSR) RowNNZVariation() float64 {
	if c.Rows == 0 || c.NNZ() == 0 {
		return 0
	}
	mean := float64(c.NNZ()) / float64(c.Rows)
	var ss float64
	for i := 0; i < c.Rows; i++ {
		d := float64(c.Ptr[i+1]-c.Ptr[i]) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(c.Rows)) / mean
}

// Validate checks the structural invariants of the representation and
// returns a descriptive error for the first violation found.
func (c *CSR) Validate() error {
	if len(c.Ptr) != c.Rows+1 {
		return fmt.Errorf("tensor: Ptr length %d, want %d", len(c.Ptr), c.Rows+1)
	}
	if c.Ptr[0] != 0 || c.Ptr[c.Rows] != c.NNZ() {
		return fmt.Errorf("tensor: segment array ends %d..%d, want 0..%d", c.Ptr[0], c.Ptr[c.Rows], c.NNZ())
	}
	if len(c.Idx) != len(c.Val) {
		return fmt.Errorf("tensor: %d coordinates but %d values", len(c.Idx), len(c.Val))
	}
	// Every segment bound lies in [0, NNZ] once the array is known not
	// to decrease, so the coordinate scan below stays in range.
	for i := 0; i < c.Rows; i++ {
		if c.Ptr[i] > c.Ptr[i+1] {
			return fmt.Errorf("tensor: segment array decreases at row %d", i)
		}
	}
	for i := 0; i < c.Rows; i++ {
		for p := c.Ptr[i]; p < c.Ptr[i+1]; p++ {
			if c.Idx[p] < 0 || c.Idx[p] >= c.Cols {
				return fmt.Errorf("tensor: row %d coordinate %d outside [0,%d)", i, c.Idx[p], c.Cols)
			}
			if p > c.Ptr[i] && c.Idx[p] <= c.Idx[p-1] {
				return fmt.Errorf("tensor: row %d coordinates not strictly increasing at position %d", i, p)
			}
		}
	}
	return nil
}
