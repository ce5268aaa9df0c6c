package tiling

import (
	"fmt"
	"math/bits"
	"slices"

	"drt/internal/tensor"
)

// Summary is the query surface shared by the dense Grid and the
// CompressedGrid: any coordinate-space rectangle of grid cells can be asked
// for its occupancy, byte footprint and stored-tile count. core.MatrixView
// adapts a Summary to the DRT growth kernel's View interface, so every
// grid representation is interchangeable behind the tiling machinery.
type Summary interface {
	// RegionNNZ returns the occupancy of grid rectangle [r0,r1)×[c0,c1)
	// (grid coordinates, clamped to the grid extents).
	RegionNNZ(r0, r1, c0, c1 int) int64
	// RegionFootprint returns the byte footprint of the macro tile
	// covering the rectangle.
	RegionFootprint(r0, r1, c0, c1 int) int64
	// RegionTiles returns the number of stored (non-empty) micro tiles in
	// the rectangle.
	RegionTiles(r0, r1, c0, c1 int) int64
	// Extents returns the grid shape (GR, GC).
	Extents() (gr, gc int)
	// TotalNNZ returns the matrix occupancy.
	TotalNNZ() int64
	// TotalFootprint returns the footprint of the whole tiled matrix.
	TotalFootprint() int64
	// EachTile calls f for every stored (non-empty) micro tile in
	// row-major order with its grid coordinates, occupancy and byte
	// footprint.
	EachTile(f func(gr, gc int, nnz, fp int64))
}

var (
	_ Summary = (*Grid)(nil)
	_ Summary = (*CompressedGrid)(nil)
)

// Mode selects the grid representation when a matrix is tiled.
type Mode int

const (
	// Auto picks Dense when the grid's cell count fits DefaultCellBudget
	// and Compressed otherwise — small grids keep O(1) queries, huge grids
	// drop from O(GR×GC) to O(occupied tiles) memory.
	Auto Mode = iota
	// Dense always builds the prefix-sum Grid: O(GR×GC) memory, O(1)
	// rectangle queries.
	Dense
	// Compressed always builds the CompressedGrid: O(occupied tiles)
	// memory, two binary searches per occupied grid row per query.
	Compressed
)

// DefaultCellBudget is the Auto-mode cell-count threshold. A dense grid
// stores three (GR+1)×(GC+1) int64 prefix-sum arrays — 24 bytes per cell —
// so the budget caps the dense representation near 200 MB per grid; beyond
// it (e.g. the full-scale SuiteSparse matrices at -scale 1, whose grids
// run to billions of cells) the compressed representation is the only one
// that fits in memory. Below the budget dense stays the right call even
// when construction churn is large: the growth probes issue rectangle
// queries at a rate that dwarfs construction, and compressed queries pay
// per-occupied-row binary searches where dense pays O(1).
const DefaultCellBudget = 1 << 23

// NewAutoGrid tiles m with the representation Auto mode selects.
func NewAutoGrid(m *tensor.CSR, tileH, tileW int) Summary {
	return NewSummaryGrid(m, tileH, tileW, TUC, Auto)
}

// NewSummaryGrid tiles m into tileH×tileW micro tiles of format f using the
// given representation mode.
func NewSummaryGrid(m *tensor.CSR, tileH, tileW int, f Format, mode Mode) Summary {
	if compressedFor(ceilDiv(m.Rows, tileH), ceilDiv(m.Cols, tileW), mode) {
		return NewCompressedGridWithFormat(m, tileH, tileW, f)
	}
	return NewGridWithFormat(m, tileH, tileW, f)
}

// SummaryBuilder builds a Summary from per-tile occupancies instead of a
// matrix, one grid row at a time: workload preparation counts the product
// Z = A·B per micro tile and never holds Z. Rows are folded exactly as
// NewSummaryGrid folds a matrix's grid rows (the dense grid's prefix-sum
// rows, the compressed grid's per-row cell lists), so the result answers
// every query as NewSummaryGrid over the matrix would.
type SummaryBuilder struct {
	dense *Grid
	row   []int64 // the dense grid's current row of cells, zero between rows
	comp  *CompressedGrid
	next  int // the grid row AddRow folds next
	gr    int // the grid's row count
}

// NewSummaryBuilder starts the summary of a rows×cols matrix tiled into
// tileH×tileW micro tiles of format f. mode picks the representation by
// NewSummaryGrid's rule.
func NewSummaryBuilder(rows, cols, tileH, tileW int, f Format, mode Mode) *SummaryBuilder {
	gr, gc := ceilDiv(rows, tileH), ceilDiv(cols, tileW)
	if compressedFor(gr, gc, mode) {
		return &SummaryBuilder{comp: newCompressedGrid(rows, cols, tileH, tileW, f), gr: gr}
	}
	return &SummaryBuilder{dense: newGrid(rows, cols, tileH, tileW, f), row: make([]int64, gc), gr: gr}
}

// AddRow folds the next grid row: its occupied tile columns, ascending,
// with nnz[p] non-zeros in tile cols[p]. The slices are not retained.
func (b *SummaryBuilder) AddRow(cols []int, nnz []int64) {
	if b.comp != nil {
		b.comp.appendRow(b.next, cols, nnz)
	} else {
		for p, c := range cols {
			b.row[c] = nnz[p]
		}
		b.dense.buildSumRow(b.next, b.row)
		for _, c := range cols {
			b.row[c] = 0
		}
	}
	b.next++
}

// Summary returns the built summary. Every grid row must have been added.
func (b *SummaryBuilder) Summary() Summary {
	if b.next != b.gr {
		panic(fmt.Sprintf("tiling: summary built from %d of %d grid rows", b.next, b.gr))
	}
	if b.comp != nil {
		return b.comp
	}
	return b.dense
}

// compressedFor reports whether mode selects the compressed representation
// for a gr×gc grid: always under Compressed, past DefaultCellBudget cells
// under Auto.
func compressedFor(gr, gc int, mode Mode) bool {
	return mode == Compressed || (mode == Auto && int64(gr)*int64(gc) > DefaultCellBudget)
}

// CompressedGrid is the sparse counterpart of Grid: instead of dense 2-D
// prefix sums it stores, per occupied grid row, the sorted list of
// non-empty cells together with running prefix sums of their occupancy and
// footprint. Memory is O(occupied tiles); a rectangle query walks the
// occupied grid rows in range and answers each with two binary searches
// over that row's cell list. Query results are identical to Grid's (pinned
// by the equivalence property test).
type CompressedGrid struct {
	Rows, Cols   int    // parent coordinate-space shape
	TileH, TileW int    // micro tile shape
	GR, GC       int    // grid extents (ceil division)
	Format       Format // per-micro-tile representation

	occRows []int // sorted occupied grid rows
	rowPtr  []int // len(occRows)+1 offsets into cols
	cols    []int // occupied cell columns, sorted within each row
	// Running sums over the cells in storage order, one leading zero:
	// a row's [lo,hi) cell span contributes cum[hi]-cum[lo].
	nnzCum []int64
	fpCum  []int64
}

// NewCompressedGrid tiles m into tileH×tileW T-UC micro tiles in the
// compressed representation.
func NewCompressedGrid(m *tensor.CSR, tileH, tileW int) *CompressedGrid {
	return NewCompressedGridWithFormat(m, tileH, tileW, TUC)
}

// NewCompressedGridWithFormat is NewCompressedGrid with an explicit
// micro-tile representation. Construction is O(nnz + occupied·log) time and
// never materializes a dense cell array: per grid row, touched tile columns
// are tracked in an epoch-marked scratch of width GC.
func NewCompressedGridWithFormat(m *tensor.CSR, tileH, tileW int, f Format) *CompressedGrid {
	g := newCompressedGrid(m.Rows, m.Cols, tileH, tileW, f)
	cnt := make([]int64, g.GC)
	mark := make([]int, g.GC)
	epoch := 0
	var touched []int
	var ns []int64
	// Same power-of-two fast path as the dense grid: micro-tile edges are
	// powers of two in every sweep, turning the per-element division into a
	// shift.
	shift := -1
	if tileW&(tileW-1) == 0 {
		shift = bits.TrailingZeros(uint(tileW))
	}
	for gr := 0; gr < g.GR; gr++ {
		epoch++
		hi := (gr + 1) * tileH
		if hi > m.Rows {
			hi = m.Rows
		}
		for _, j := range m.Idx[m.Ptr[gr*tileH]:m.Ptr[hi]] {
			c := j / tileW
			if shift >= 0 {
				c = j >> shift
			}
			if mark[c] != epoch {
				mark[c] = epoch
				cnt[c] = 0
				touched = append(touched, c)
			}
			cnt[c]++
		}
		slices.Sort(touched)
		ns = ns[:0]
		for _, c := range touched {
			ns = append(ns, cnt[c])
		}
		g.appendRow(gr, touched, ns)
		touched = touched[:0]
	}
	return g
}

// newCompressedGrid returns an empty compressed grid over a rows×cols
// matrix, ready for appendRow.
func newCompressedGrid(rows, cols, tileH, tileW int, f Format) *CompressedGrid {
	if tileH < 1 || tileW < 1 {
		panic(fmt.Sprintf("tiling: invalid micro tile shape %dx%d", tileH, tileW))
	}
	return &CompressedGrid{
		Rows: rows, Cols: cols,
		TileH: tileH, TileW: tileW,
		GR: ceilDiv(rows, tileH), GC: ceilDiv(cols, tileW),
		Format: f,
		rowPtr: []int{0},
		nnzCum: []int64{0},
		fpCum:  []int64{0},
	}
}

// appendRow stores grid row gr's occupied cells: cols ascending, with
// nnz[p] non-zeros in cell cols[p]. Rows must be appended in ascending
// order; an empty row stores nothing.
func (g *CompressedGrid) appendRow(gr int, cols []int, nnz []int64) {
	if len(cols) == 0 {
		return
	}
	g.occRows = append(g.occRows, gr)
	for p, c := range cols {
		n := nnz[p]
		g.cols = append(g.cols, c)
		g.nnzCum = append(g.nnzCum, g.nnzCum[len(g.nnzCum)-1]+n)
		g.fpCum = append(g.fpCum, g.fpCum[len(g.fpCum)-1]+MicroFootprintFormat(g.Format, g.TileH, int(n)))
	}
	g.rowPtr = append(g.rowPtr, len(g.cols))
}

// clampRect clips a grid-coordinate rectangle to the grid extents.
func (g *CompressedGrid) clampRect(r0, r1, c0, c1 int) (int, int, int, int) {
	r0, r1 = clampSpan(r0, r1, g.GR)
	c0, c1 = clampSpan(c0, c1, g.GC)
	return r0, r1, c0, c1
}

// query accumulates nnz/footprint/tile counts over the rectangle: the
// occupied rows in [r0,r1) are found by binary search, then each row's
// [c0,c1) span by two more binary searches over its sorted cell columns.
func (g *CompressedGrid) query(r0, r1, c0, c1 int) (nnz, fp, tiles int64) {
	r0, r1, c0, c1 = g.clampRect(r0, r1, c0, c1)
	a, _ := slices.BinarySearch(g.occRows, r0)
	b, _ := slices.BinarySearch(g.occRows, r1)
	for t := a; t < b; t++ {
		lo, hi := g.rowPtr[t], g.rowPtr[t+1]
		s, _ := slices.BinarySearch(g.cols[lo:hi], c0)
		e, _ := slices.BinarySearch(g.cols[lo:hi], c1)
		s, e = lo+s, lo+e
		nnz += g.nnzCum[e] - g.nnzCum[s]
		fp += g.fpCum[e] - g.fpCum[s]
		tiles += int64(e - s)
	}
	return nnz, fp, tiles
}

// RegionNNZ implements Summary.
func (g *CompressedGrid) RegionNNZ(r0, r1, c0, c1 int) int64 {
	n, _, _ := g.query(r0, r1, c0, c1)
	return n
}

// RegionFootprint implements Summary.
func (g *CompressedGrid) RegionFootprint(r0, r1, c0, c1 int) int64 {
	_, fp, _ := g.query(r0, r1, c0, c1)
	return fp
}

// RegionTiles implements Summary.
func (g *CompressedGrid) RegionTiles(r0, r1, c0, c1 int) int64 {
	_, _, tc := g.query(r0, r1, c0, c1)
	return tc
}

// Extents implements Summary.
func (g *CompressedGrid) Extents() (int, int) { return g.GR, g.GC }

// TotalNNZ implements Summary.
func (g *CompressedGrid) TotalNNZ() int64 { return g.nnzCum[len(g.nnzCum)-1] }

// TotalFootprint implements Summary.
func (g *CompressedGrid) TotalFootprint() int64 { return g.fpCum[len(g.fpCum)-1] }

// EachTile implements Summary: only stored tiles are visited, in row-major
// order.
func (g *CompressedGrid) EachTile(f func(gr, gc int, nnz, fp int64)) {
	for t, r := range g.occRows {
		for p := g.rowPtr[t]; p < g.rowPtr[t+1]; p++ {
			f(r, g.cols[p], g.nnzCum[p+1]-g.nnzCum[p], g.fpCum[p+1]-g.fpCum[p])
		}
	}
}
