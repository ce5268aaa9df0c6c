package tensor

// CSC is a compressed sparse column matrix (T-CU mirror of CSR): Ptr is
// the per-column segment array, Idx holds row coordinates in increasing
// order within each column. The paper's concordant traversals use CSC for
// the K-major and J-major operand layouts of Fig. 3b.
type CSC struct {
	Rows, Cols int
	Ptr        []int
	Idx        []int
	Val        []float64
}

// NNZ returns the number of stored non-zeros.
func (c *CSC) NNZ() int { return len(c.Idx) }

// Footprint returns the modeled byte footprint of the representation.
func (c *CSC) Footprint() int64 { return FootprintCSR(c.Cols, c.NNZ()) }

// Col returns the fiber for column j: its row coordinates and values.
func (c *CSC) Col(j int) Fiber {
	lo, hi := c.Ptr[j], c.Ptr[j+1]
	return Fiber{Coords: c.Idx[lo:hi], Vals: c.Val[lo:hi]}
}

// ColRange returns the positions [lo, hi) within column j whose row
// coordinates fall inside [r0, r1). Like CSR.RowRange, the window bounds
// are clamped to [0, Rows].
func (c *CSC) ColRange(j, r0, r1 int) (lo, hi int) {
	s, e := c.Ptr[j], c.Ptr[j+1]
	if r0 < 0 {
		r0 = 0
	}
	if r1 > c.Rows {
		r1 = c.Rows
	}
	if s == e || r1 <= r0 || c.Idx[e-1] < r0 {
		return e, e
	}
	if c.Idx[s] >= r1 {
		return s, s
	}
	lo = lowerBound(c.Idx, s, e, r0)
	hi = lowerBound(c.Idx, lo, e, r1)
	return lo, hi
}

// ToCSR converts to the row-major representation.
func (c *CSC) ToCSR() *CSR {
	// A CSC is bitwise a CSR of the transpose; transpose it back.
	t := &CSR{Rows: c.Cols, Cols: c.Rows, Ptr: c.Ptr, Idx: c.Idx, Val: c.Val}
	return t.Transpose()
}
