package core

import "drt/internal/tiling"

// MatrixView adapts a 2-D micro-tile grid summary to the View interface. The operand's first dimension maps to grid rows
// and the second to grid columns; set Transposed when the operand is the
// transpose of the stored matrix (e.g. a view of Aᵀ over A's grid).
type MatrixView struct {
	G          *tiling.Grid
	Transposed bool
}

func (v MatrixView) rect(rs []Range) (r, c Range) {
	r, c = rs[0], rs[1]
	if v.Transposed {
		r, c = c, r
	}
	return r, c
}

// Footprint implements View.
func (v MatrixView) Footprint(rs []Range) int64 {
	r, c := v.rect(rs)
	return v.G.RegionFootprint(r.Lo, r.Hi, c.Lo, c.Hi)
}

// NNZ implements View.
func (v MatrixView) NNZ(rs []Range) int64 {
	r, c := v.rect(rs)
	return v.G.RegionNNZ(r.Lo, r.Hi, c.Lo, c.Hi)
}

// Tiles implements View.
func (v MatrixView) Tiles(rs []Range) int64 {
	r, c := v.rect(rs)
	return v.G.RegionTiles(r.Lo, r.Hi, c.Lo, c.Hi)
}

// TensorView adapts a 3-D micro-tile grid summary (dense or compressed):
// the operand's dimensions map to the grid's (I, J, K) axes through Axes,
// so the Gram kernel's second operand χ_ljk can reuse χ's grid with its l
// dimension mapped to axis 0.
type TensorView struct {
	G tiling.Summary3
	// Axes[a] gives, for grid axis a (0=I, 1=J, 2=K), the index into the
	// operand's ranges slice. A nil Axes means identity.
	Axes *[3]int
}

func (v TensorView) box(rs []Range) (i, j, k Range) {
	if v.Axes == nil {
		return rs[0], rs[1], rs[2]
	}
	return rs[v.Axes[0]], rs[v.Axes[1]], rs[v.Axes[2]]
}

// Footprint implements View.
func (v TensorView) Footprint(rs []Range) int64 {
	i, j, k := v.box(rs)
	return v.G.RegionFootprint(i.Lo, i.Hi, j.Lo, j.Hi, k.Lo, k.Hi)
}

// NNZ implements View.
func (v TensorView) NNZ(rs []Range) int64 {
	i, j, k := v.box(rs)
	return v.G.RegionNNZ(i.Lo, i.Hi, j.Lo, j.Hi, k.Lo, k.Hi)
}

// Tiles implements View.
func (v TensorView) Tiles(rs []Range) int64 {
	i, j, k := v.box(rs)
	return v.G.RegionTiles(i.Lo, i.Hi, j.Lo, j.Hi, k.Lo, k.Hi)
}

// DenseView models an uncompressed (dense) operand at micro-tile
// granularity: every cell is fully occupied, footprints are exact
// coordinate areas, and no region is ever empty. It lets the DRT machinery
// plan mixed sparse–dense kernels such as SpMM, where the dense operand's
// footprint is what bounds tile growth.
type DenseView struct {
	Rows, Cols   int // parent coordinate extents
	TileH, TileW int // micro tile shape
	// ElemBytes is the byte cost per element (ValueBytes for raw dense
	// data).
	ElemBytes int64
}

// area returns the coordinate-space area of the clamped region.
func (v DenseView) area(rs []Range) (cells int64, coords int64) {
	clamp := func(hi, tile, ext int) int {
		c := hi * tile
		if c > ext {
			c = ext
		}
		return c
	}
	r, c := rs[0], rs[1]
	rh := clamp(r.Hi, v.TileH, v.Rows)
	rl := r.Lo * v.TileH
	ch := clamp(c.Hi, v.TileW, v.Cols)
	cl := c.Lo * v.TileW
	if rh < rl {
		rh = rl
	}
	if ch < cl {
		ch = cl
	}
	coords = int64(rh-rl) * int64(ch-cl)
	cells = int64(r.Hi-r.Lo) * int64(c.Hi-c.Lo)
	if cells < 0 {
		cells = 0
	}
	return cells, coords
}

// Footprint implements View.
func (v DenseView) Footprint(rs []Range) int64 {
	_, coords := v.area(rs)
	return coords * v.ElemBytes
}

// NNZ implements View.
func (v DenseView) NNZ(rs []Range) int64 {
	_, coords := v.area(rs)
	return coords
}

// Tiles implements View.
func (v DenseView) Tiles(rs []Range) int64 {
	cells, _ := v.area(rs)
	return cells
}

var (
	_ View = MatrixView{}
	_ View = TensorView{}
	_ View = DenseView{}
)
