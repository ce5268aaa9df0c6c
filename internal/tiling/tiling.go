// Package tiling implements the paper's S-U-C micro-tiling pre-processing
// (Sec. 3.2.1 and 4.1): input tensors are physically carved into
// statically-built, uniformly-shaped coordinate-space micro tiles, and the
// representation is augmented with per-micro-tile footprints ("micro tile
// sizes" in Fig. 5) so the tile extractor can aggregate macro tiles without
// introspecting micro-tile metadata.
//
// The Grid types store per-micro-tile occupancy/footprint summaries with
// inclusion–exclusion prefix sums, so any coordinate-space rectangle's
// footprint is a constant-time query (see Grid for the strips a block
// edge above 1 adds). DRT's growth probes use these queries; the
// extractor cycle model separately charges the raster-order scan cost the
// hardware would pay (see internal/extractor).
package tiling

import (
	"fmt"
	"math/bits"
	"slices"

	"drt/internal/tensor"
)

// TileOverheadWords is the number of metadata words the augmented
// representation stores per non-empty micro tile at the outer level: its
// coordinate, its footprint ("micro tile sizes" array) and its pointer
// (Fig. 5).
const TileOverheadWords = 3

// Format selects the compressed representation of each micro tile.
type Format int

const (
	// TUC is the evaluation's default: each micro tile is a CSR (T-UC)
	// structure with a full segment array, cheap to index but
	// metadata-heavy for hyper-sparse tiles (the red-circled outliers of
	// Fig. 11).
	TUC Format = iota
	// TCC compresses the row dimension too (doubly compressed, DCSR):
	// only occupied rows carry segment entries — the representation
	// Sec. 6.3 expects to resolve the metadata-overhead outliers.
	TCC
)

// String names the format as in the paper's T-[uc]+ taxonomy.
func (f Format) String() string {
	if f == TCC {
		return "T-CC"
	}
	return "T-UC"
}

// MicroFootprint returns the modeled byte footprint of one micro tile with
// the given shape and occupancy: its own CSR structure plus the outer-level
// coordinate/size/pointer words. Empty tiles are not stored and cost 0.
func MicroFootprint(tileRows, nnz int) int64 {
	return MicroFootprintFormat(TUC, tileRows, nnz)
}

// MicroFootprintFormat is MicroFootprint for an explicit tile format. The
// T-CC occupied-row count is approximated by min(nnz, tileRows), exact at
// both the hyper-sparse and dense extremes.
func MicroFootprintFormat(f Format, tileRows, nnz int) int64 {
	if nnz == 0 {
		return 0
	}
	switch f {
	case TCC:
		occRows := nnz
		if occRows > tileRows {
			occRows = tileRows
		}
		// Row-coordinate list + segment array over occupied rows only,
		// then the usual coordinate/value arrays and outer overhead.
		meta := int64(occRows+occRows+1+nnz) * tensor.MetaBytes
		return meta + int64(nnz)*tensor.ValueBytes + TileOverheadWords*tensor.MetaBytes
	default:
		return tensor.FootprintCSR(tileRows, nnz) + TileOverheadWords*tensor.MetaBytes
	}
}

// Mode is NewSummaryGrid's representation argument. A summary has one
// representation, so Auto is the only value; the type stays because
// figbench's layer probe passes it.
type Mode int

// Auto is the only Mode.
const Auto Mode = 0

// DefaultCellBudget is the largest grid, in cells, whose summary keeps one
// prefix sum per cell. Those sums are three (GR+1)×(GC+1) int64 arrays, 24
// bytes per cell, so the budget caps them near 200 MB. A larger grid (the
// micro-tile-4 grids of the largest matrices, and the full-scale
// SuiteSparse matrices at -scale 1, whose grids run to billions of cells)
// sums blocks of cells instead; see Grid.
const DefaultCellBudget = 1 << 23

// blockCellBudget bounds the block grid of a summary past
// DefaultCellBudget: 2^19 blocks, 12 MB of sums. The bound sizes blocks by
// memory: a smaller one leaves wider strips for the cell lists to answer,
// and blocks sized to DefaultCellBudget itself would triple the peak RSS
// of a micro-tile-4 pwtk run while answering it no faster.
const blockCellBudget = DefaultCellBudget / 16

// forcedBlockEdge, when positive, replaces blockEdge's rule; only tests
// set it, to build any grid at a chosen block edge.
var forcedBlockEdge int

// blockEdge returns the block edge of a gr×gc grid's summary: 1 while the
// grid fits DefaultCellBudget, else the smallest power of two whose block
// grid fits blockCellBudget. It depends on the extents alone, so a summary
// built from a matrix and one folded from per-tile counts agree.
func blockEdge(gr, gc int) int {
	if forcedBlockEdge > 0 {
		return forcedBlockEdge
	}
	if int64(gr)*int64(gc) <= DefaultCellBudget {
		return 1
	}
	s := 2
	for int64(ceilDiv(gr, s))*int64(ceilDiv(gc, s)) > blockCellBudget {
		s *= 2
	}
	return s
}

// Grid is the micro-tile summary of a matrix: per-tile non-zero counts,
// footprints and stored-tile counts over a GR×GC grid of TileH×TileW
// coordinate-space tiles, answered for any rectangle of grid cells.
//
// It keeps 2-D prefix sums over blocks of s×s grid cells. While the grid
// fits DefaultCellBudget, s is 1: the sums are per cell and a rectangle
// costs four lookups. Past the budget, s is the smallest power of two
// whose block grid fits DefaultCellBudget/16, and the grid also keeps the
// sorted list of occupied cells along each grid row and each grid column.
// A rectangle's block-aligned interior then comes from the block sums and
// each strip narrower than a block around it from one list, with two
// binary searches. Every count is an integer, so any split of a rectangle
// is exact: the answers do not depend on s.
type Grid struct {
	Rows, Cols   int    // parent coordinate-space shape
	TileH, TileW int    // micro tile shape
	GR, GC       int    // grid extents (ceil division)
	Format       Format // per-micro-tile representation

	s      int // block edge, in grid cells
	br, bc int // block grid extents, ceil(GR/s)×ceil(GC/s)
	// Prefix sums, each of length (br+1)*(bc+1), indexed [r*(bc+1)+c]:
	// sum over blocks [0,r)×[0,c).
	nnzSum  []int64
	fpSum   []int64
	tileSum []int64 // count of non-empty micro tiles

	// The occupied cells along each grid row and each grid column; empty
	// at s = 1.
	byRow, byCol cellLists
}

// cellLists holds the occupied cells along each line (grid row or
// column) of a grid, CSR-style: line l's cells are [ptr[l], ptr[l+1]),
// ascending in idx, their coordinate along the line.
type cellLists struct {
	ptr []int
	idx []int
	// Running sums over the cells in storage order, one leading zero: a
	// span [a,b) of cells holds nnz[b]-nnz[a] non-zeros.
	nnz []int64
	fp  []int64
}

// metric selects the quantity a rectangle query sums.
type metric int

const (
	nnzMetric metric = iota
	fpMetric
	tileMetric
)

// sum returns metric m over line l's cells whose coordinate lies in
// [lo, hi).
func (ls *cellLists) sum(m metric, l, lo, hi int) int64 {
	a, b := ls.ptr[l], ls.ptr[l+1]
	s, _ := slices.BinarySearch(ls.idx[a:b], lo)
	e, _ := slices.BinarySearch(ls.idx[a+s:b], hi)
	s += a
	e += s
	switch m {
	case nnzMetric:
		return ls.nnz[e] - ls.nnz[s]
	case fpMetric:
		return ls.fp[e] - ls.fp[s]
	}
	return int64(e - s)
}

// NewSummaryGrid tiles m into tileH×tileW micro tiles of format f. The
// Mode argument is ignored (see Mode).
func NewSummaryGrid(m *tensor.CSR, tileH, tileW int, f Format, _ Mode) *Grid {
	g := newGrid(m.Rows, m.Cols, tileH, tileW, f)
	// Count non-zeros one grid row at a time (the tileH parent rows of
	// grid row gr map to it contiguously): the working set is one GC-wide
	// row instead of a full GR×GC counts array. At s = 1 the row folds
	// straight into the prefix sums; past the budget its occupied cells,
	// noted as they are first touched and then sorted, go to the row
	// lists, so no pass over the row's GC cells is made.
	cnt := make([]int64, g.GC)
	var touched []int
	var ns []int64
	// The counting loop runs once per non-zero; micro-tile edges are
	// powers of two in every sweep, so the per-element division by tileW
	// reduces to a shift on that path.
	shift := -1
	if tileW&(tileW-1) == 0 {
		shift = bits.TrailingZeros(uint(tileW))
	}
	for gr := 0; gr < g.GR; gr++ {
		idx := m.Idx[m.Ptr[gr*tileH]:m.Ptr[min((gr+1)*tileH, m.Rows)]]
		if g.s == 1 {
			if shift >= 0 {
				for _, c := range idx {
					cnt[c>>shift]++
				}
			} else {
				for _, c := range idx {
					cnt[c/tileW]++
				}
			}
			g.buildSumRow(gr, cnt)
			clear(cnt)
			continue
		}
		for _, c := range idx {
			if shift >= 0 {
				c >>= shift
			} else {
				c /= tileW
			}
			if cnt[c] == 0 {
				touched = append(touched, c)
			}
			cnt[c]++
		}
		slices.Sort(touched)
		ns = ns[:0]
		for _, c := range touched {
			ns = append(ns, cnt[c])
			cnt[c] = 0
		}
		g.appendRow(touched, ns)
		touched = touched[:0]
	}
	g.finish()
	return g
}

// newGrid returns an empty grid over a rows×cols matrix, ready for
// buildSumRow (s = 1) or appendRow and finish (s > 1).
func newGrid(rows, cols, tileH, tileW int, f Format) *Grid {
	if tileH < 1 || tileW < 1 {
		panic(fmt.Sprintf("tiling: invalid micro tile shape %dx%d", tileH, tileW))
	}
	g := &Grid{
		Rows: rows, Cols: cols,
		TileH: tileH, TileW: tileW,
		GR: ceilDiv(rows, tileH), GC: ceilDiv(cols, tileW),
		Format: f,
	}
	g.s = blockEdge(g.GR, g.GC)
	g.br, g.bc = ceilDiv(g.GR, g.s), ceilDiv(g.GC, g.s)
	n := (g.br + 1) * (g.bc + 1)
	g.nnzSum = make([]int64, n)
	g.fpSum = make([]int64, n)
	g.tileSum = make([]int64, n)
	if g.s > 1 {
		g.byRow = cellLists{ptr: make([]int, 1, g.GR+1), nnz: []int64{0}, fp: []int64{0}}
	}
	return g
}

// buildSumRow folds one grid row's cell counts into the prefix sums at
// s = 1: prefix[r+1][c+1] = rowsum_r[0..c] + prefix[r][c+1], so carrying
// the current row's running sums reads only the row above, sequentially,
// instead of a 3-corner inclusion-exclusion per cell.
func (g *Grid) buildSumRow(r int, row []int64) {
	w := g.GC + 1
	var runN, runFp, runT int64
	up := g.nnzSum[r*w : (r+1)*w]
	lo := g.nnzSum[(r+1)*w : (r+2)*w]
	upFp := g.fpSum[r*w : (r+1)*w]
	loFp := g.fpSum[(r+1)*w : (r+2)*w]
	upT := g.tileSum[r*w : (r+1)*w]
	loT := g.tileSum[(r+1)*w : (r+2)*w]
	for c, n := range row {
		if n > 0 {
			runFp += MicroFootprintFormat(g.Format, g.TileH, int(n))
			runT++
		}
		runN += n
		lo[c+1] = runN + up[c+1]
		loFp[c+1] = runFp + upFp[c+1]
		loT[c+1] = runT + upT[c+1]
	}
}

// appendRow stores the next grid row's occupied cells at s > 1: cols
// ascending, with nnz[p] non-zeros in cell cols[p].
func (g *Grid) appendRow(cols []int, nnz []int64) {
	ls := &g.byRow
	for p, c := range cols {
		n := nnz[p]
		ls.idx = append(ls.idx, c)
		ls.nnz = append(ls.nnz, ls.nnz[len(ls.nnz)-1]+n)
		ls.fp = append(ls.fp, ls.fp[len(ls.fp)-1]+MicroFootprintFormat(g.Format, g.TileH, int(n)))
	}
	ls.ptr = append(ls.ptr, len(ls.idx))
}

// finish builds, at s > 1, the block prefix sums and the column lists
// from the complete row lists.
func (g *Grid) finish() {
	if g.s == 1 {
		return
	}
	rl := &g.byRow
	// The block sums, one block row at a time: each row's cells are added
	// to their blocks, then the block row folds like buildSumRow's rows.
	w := g.bc + 1
	nnz, fp, tiles := make([]int64, g.bc), make([]int64, g.bc), make([]int64, g.bc)
	for b := 0; b < g.br; b++ {
		for p := rl.ptr[b*g.s]; p < rl.ptr[min((b+1)*g.s, g.GR)]; p++ {
			c := rl.idx[p] / g.s
			nnz[c] += rl.nnz[p+1] - rl.nnz[p]
			fp[c] += rl.fp[p+1] - rl.fp[p]
			tiles[c]++
		}
		var runN, runFp, runT int64
		for c := range g.bc {
			runN += nnz[c]
			runFp += fp[c]
			runT += tiles[c]
			g.nnzSum[(b+1)*w+c+1] = runN + g.nnzSum[b*w+c+1]
			g.fpSum[(b+1)*w+c+1] = runFp + g.fpSum[b*w+c+1]
			g.tileSum[(b+1)*w+c+1] = runT + g.tileSum[b*w+c+1]
		}
		clear(nnz)
		clear(fp)
		clear(tiles)
	}
	// The column lists: a counting sort of the row lists by column. Rows
	// are visited in order, so each column's cells come out ascending.
	occ := len(rl.idx)
	cl := cellLists{ptr: make([]int, g.GC+1), idx: make([]int, occ),
		nnz: make([]int64, occ+1), fp: make([]int64, occ+1)}
	for _, c := range rl.idx {
		cl.ptr[c+1]++
	}
	for c := range g.GC {
		cl.ptr[c+1] += cl.ptr[c]
	}
	next := slices.Clone(cl.ptr[:g.GC])
	for r := range g.GR {
		for p := rl.ptr[r]; p < rl.ptr[r+1]; p++ {
			c := rl.idx[p]
			q := next[c]
			next[c]++
			cl.idx[q] = r
			cl.nnz[q+1] = rl.nnz[p+1] - rl.nnz[p]
			cl.fp[q+1] = rl.fp[p+1] - rl.fp[p]
		}
	}
	for q := range occ {
		cl.nnz[q+1] += cl.nnz[q]
		cl.fp[q+1] += cl.fp[q]
	}
	g.byCol = cl
}

// SummaryBuilder builds a Grid from per-tile occupancies instead of a
// matrix, one grid row at a time: workload preparation counts the product
// Z = A·B per micro tile and never holds Z. Rows are folded exactly as
// NewSummaryGrid folds a matrix's grid rows, so the result is the grid
// NewSummaryGrid builds from the matrix.
type SummaryBuilder struct {
	g    *Grid
	row  []int64 // s = 1: the current grid row's cells, zero between rows
	next int     // the grid row AddRow folds next
}

// NewSummaryBuilder starts the summary of a rows×cols matrix tiled into
// tileH×tileW micro tiles of format f.
func NewSummaryBuilder(rows, cols, tileH, tileW int, f Format) *SummaryBuilder {
	b := &SummaryBuilder{g: newGrid(rows, cols, tileH, tileW, f)}
	if b.g.s == 1 {
		b.row = make([]int64, b.g.GC)
	}
	return b
}

// AddRow folds the next grid row: its occupied tile columns, ascending,
// with nnz[p] non-zeros in tile cols[p]. The slices are not retained.
func (b *SummaryBuilder) AddRow(cols []int, nnz []int64) {
	if b.row == nil {
		b.g.appendRow(cols, nnz)
	} else {
		for p, c := range cols {
			b.row[c] = nnz[p]
		}
		b.g.buildSumRow(b.next, b.row)
		for _, c := range cols {
			b.row[c] = 0
		}
	}
	b.next++
}

// Summary returns the built grid. Every grid row must have been added.
func (b *SummaryBuilder) Summary() *Grid {
	if b.next != b.g.GR {
		panic(fmt.Sprintf("tiling: summary built from %d of %d grid rows", b.next, b.g.GR))
	}
	b.g.finish()
	return b.g
}

// clampSpan clips a half-open interval to [0, ext]. Both bounds are
// clamped: an interval lying entirely past the extent must collapse to
// empty, not index past the prefix sums.
func clampSpan(lo, hi, ext int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if lo > ext {
		lo = ext
	}
	if hi > ext {
		hi = ext
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func rectQuery(sum []int64, w, r0, r1, c0, c1 int) int64 {
	return sum[r1*w+c1] - sum[r0*w+c1] - sum[r1*w+c0] + sum[r0*w+c0]
}

// region returns metric m, whose block prefix sums are sum, over grid
// rectangle [r0,r1)×[c0,c1), clamped to the grid.
func (g *Grid) region(m metric, sum []int64, r0, r1, c0, c1 int) int64 {
	r0, r1 = clampSpan(r0, r1, g.GR)
	c0, c1 = clampSpan(c0, c1, g.GC)
	if g.s == 1 {
		return rectQuery(sum, g.bc+1, r0, r1, c0, c1)
	}
	br0, br1 := g.blockSpan(r0, r1, g.GR)
	bc0, bc1 := g.blockSpan(c0, c1, g.GC)
	var v int64
	if br0 >= br1 || bc0 >= bc1 {
		// No whole block along one dimension: walk the fewer lines.
		if r1-r0 <= c1-c0 {
			for r := r0; r < r1; r++ {
				v += g.byRow.sum(m, r, c0, c1)
			}
		} else {
			for c := c0; c < c1; c++ {
				v += g.byCol.sum(m, c, r0, r1)
			}
		}
		return v
	}
	// The interior's blocks, then the strips around it: rows above and
	// below over the whole column span, columns left and right over the
	// interior's rows only, so no corner is counted twice.
	v = rectQuery(sum, g.bc+1, br0, br1, bc0, bc1)
	ir0, ir1 := br0*g.s, min(br1*g.s, r1)
	for r := r0; r < ir0; r++ {
		v += g.byRow.sum(m, r, c0, c1)
	}
	for r := ir1; r < r1; r++ {
		v += g.byRow.sum(m, r, c0, c1)
	}
	for c := c0; c < bc0*g.s; c++ {
		v += g.byCol.sum(m, c, ir0, ir1)
	}
	for c := min(bc1*g.s, c1); c < c1; c++ {
		v += g.byCol.sum(m, c, ir0, ir1)
	}
	return v
}

// blockSpan returns the blocks lying wholly inside the clamped cell span
// [lo, hi) of a dimension with ext cells: a span that reaches ext takes
// the ragged last block too.
func (g *Grid) blockSpan(lo, hi, ext int) (int, int) {
	b0, b1 := (lo+g.s-1)/g.s, hi/g.s
	if hi == ext {
		b1 = ceilDiv(ext, g.s)
	}
	return b0, b1
}

// RegionNNZ returns the occupancy of grid rectangle [r0,r1)×[c0,c1)
// (grid coordinates, clamped).
func (g *Grid) RegionNNZ(r0, r1, c0, c1 int) int64 {
	return g.region(nnzMetric, g.nnzSum, r0, r1, c0, c1)
}

// RegionFootprint returns the byte footprint of the macro tile covering
// grid rectangle [r0,r1)×[c0,c1): the stored micro tiles plus their
// outer-level metadata.
func (g *Grid) RegionFootprint(r0, r1, c0, c1 int) int64 {
	return g.region(fpMetric, g.fpSum, r0, r1, c0, c1)
}

// RegionTiles returns the number of stored (non-empty) micro tiles in the
// rectangle; the extractor's Aggregate scan cost is proportional to it.
func (g *Grid) RegionTiles(r0, r1, c0, c1 int) int64 {
	return g.region(tileMetric, g.tileSum, r0, r1, c0, c1)
}

// TotalFootprint returns the footprint of the whole tiled matrix.
func (g *Grid) TotalFootprint() int64 { return g.RegionFootprint(0, g.GR, 0, g.GC) }

// Extents returns the grid shape (GR, GC).
func (g *Grid) Extents() (int, int) { return g.GR, g.GC }

// EachTile calls f for every stored (non-empty) micro tile in row-major
// order with its grid coordinates, occupancy and byte footprint. Past the
// budget it walks the row lists. At s = 1 it reads the prefix sums: a
// row's occupancy over its first c cells, cum(c), never decreases in c,
// so each stored tile is found by galloping from the last one, and a row
// with t stored tiles costs O(t·log(GC/t)) probes instead of one per
// cell, which matters for the mostly empty grids of sparse matrices.
func (g *Grid) EachTile(f func(gr, gc int, nnz, fp int64)) {
	if g.s > 1 {
		rl := &g.byRow
		for r := range g.GR {
			for p := rl.ptr[r]; p < rl.ptr[r+1]; p++ {
				f(r, rl.idx[p], rl.nnz[p+1]-rl.nnz[p], rl.fp[p+1]-rl.fp[p])
			}
		}
		return
	}
	w := g.GC + 1
	for r := 0; r < g.GR; r++ {
		up, down := g.nnzSum[r*w:(r+1)*w], g.nnzSum[(r+1)*w:(r+2)*w]
		cum := func(c int) int64 { return down[c] - up[c] }
		// seen is cum(c): every stored tile left of cell c was visited.
		for c, seen := 0, int64(0); seen < cum(g.GC); {
			// The next stored tile is the cell lo with cum(lo) == seen <
			// cum(lo+1): gallop hi out until it passes seen, then bisect.
			lo, hi := c, c+1
			for step := 1; cum(hi) == seen; step *= 2 {
				lo, hi = hi, min(hi+step, g.GC)
			}
			for lo+1 < hi {
				if mid := (lo + hi) / 2; cum(mid) == seen {
					lo = mid
				} else {
					hi = mid
				}
			}
			n := cum(lo+1) - seen
			f(r, lo, n, MicroFootprintFormat(g.Format, g.TileH, int(n)))
			seen += n
			c = lo + 1
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// SuggestMicroTile picks, from the candidate edges, the micro tile size
// that minimizes the matrix's tiled footprint — the runtime shape decision
// Fig. 17's discussion leaves to future work. Small tiles pay per-tile
// metadata on hyper-sparse data; large tiles pay segment-array overhead
// and converge to S-U-C behavior. With no candidates, {8, 16, 32, 64} are
// tried.
func SuggestMicroTile(m *tensor.CSR, candidates ...int) int {
	if len(candidates) == 0 {
		candidates = []int{8, 16, 32, 64}
	}
	best, bestFP := candidates[0], int64(-1)
	for _, edge := range candidates {
		if edge < 1 {
			continue
		}
		fp := NewSummaryGrid(m, edge, edge, TUC, Auto).TotalFootprint()
		if bestFP < 0 || fp < bestFP {
			best, bestFP = edge, fp
		}
	}
	return best
}
