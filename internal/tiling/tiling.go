// Package tiling implements the paper's S-U-C micro-tiling pre-processing
// (Sec. 3.2.1 and 4.1): input tensors are physically carved into
// statically-built, uniformly-shaped coordinate-space micro tiles, and the
// representation is augmented with per-micro-tile footprints ("micro tile
// sizes" in Fig. 5) so the tile extractor can aggregate macro tiles without
// introspecting micro-tile metadata.
//
// The Grid types store per-micro-tile occupancy/footprint summaries with
// inclusion–exclusion prefix sums, so any coordinate-space rectangle's
// footprint is an O(1) query. DRT's growth probes use these queries; the
// extractor cycle model separately charges the raster-order scan cost the
// hardware would pay (see internal/extractor).
package tiling

import (
	"fmt"
	"math/bits"

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

// Grid is the micro-tile summary of a matrix: per-tile non-zero counts and
// footprints over a GR×GC grid of TileH×TileW coordinate-space tiles, with
// 2-D prefix sums for O(1) rectangle queries.
type Grid struct {
	Rows, Cols   int    // parent coordinate-space shape
	TileH, TileW int    // micro tile shape
	GR, GC       int    // grid extents (ceil division)
	Format       Format // per-micro-tile representation

	// Prefix sums, each of length (GR+1)*(GC+1), indexed [r*(GC+1)+c]:
	// sum over grid cells [0,r)×[0,c).
	nnzSum  []int64
	fpSum   []int64
	tileSum []int64 // count of non-empty micro tiles
}

// NewGrid tiles m into tileH×tileW T-UC micro tiles and builds the prefix
// sums.
func NewGrid(m *tensor.CSR, tileH, tileW int) *Grid {
	return NewGridWithFormat(m, tileH, tileW, TUC)
}

// NewGridWithFormat is NewGrid with an explicit micro-tile representation.
func NewGridWithFormat(m *tensor.CSR, tileH, tileW int, f Format) *Grid {
	g := newGrid(m.Rows, m.Cols, tileH, tileW, f)
	// Count non-zeros one grid row at a time (the tileH parent rows of grid
	// row gr map to it contiguously) and fold the row straight into the
	// prefix sums: the working set is one GC-wide row instead of a full
	// GR×GC counts array — grid construction is the dominant allocation of
	// the micro-tile sweeps (Fig. 17, the auto-tile ablation), and the churn
	// taxes every later GC cycle of a long-lived process.
	row := make([]int64, g.GC)
	// The counting loop runs once per non-zero; micro-tile edges are
	// powers of two in every sweep, so the per-element division by tileW
	// reduces to a shift on that path.
	shift := -1
	if tileW&(tileW-1) == 0 {
		shift = bits.TrailingZeros(uint(tileW))
	}
	for gr := 0; gr < g.GR; gr++ {
		hi := (gr + 1) * tileH
		if hi > m.Rows {
			hi = m.Rows
		}
		lo, end := m.Ptr[gr*tileH], m.Ptr[hi]
		if shift >= 0 {
			for _, c := range m.Idx[lo:end] {
				row[c>>shift]++
			}
		} else {
			for _, c := range m.Idx[lo:end] {
				row[c/tileW]++
			}
		}
		g.buildSumRow(gr, row)
		clear(row)
	}
	return g
}

// newGrid returns a grid over a rows×cols matrix with zeroed prefix sums,
// ready for buildSumRow.
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
	g.allocSums()
	return g
}

// allocSums sizes the three prefix-sum arrays (zeroed first row/column).
func (g *Grid) allocSums() {
	n := (g.GR + 1) * (g.GC + 1)
	g.nnzSum = make([]int64, n)
	g.fpSum = make([]int64, n)
	g.tileSum = make([]int64, n)
}

// buildSumRow folds one grid row's cell counts into the prefix sums:
// prefix[r+1][c+1] = rowsum_r[0..c] + prefix[r][c+1], so carrying the
// current row's running sums reads only the row above, sequentially,
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

// clampRect clips a grid-coordinate rectangle to the grid extents.
func (g *Grid) clampRect(r0, r1, c0, c1 int) (int, int, int, int) {
	r0, r1 = clampSpan(r0, r1, g.GR)
	c0, c1 = clampSpan(c0, c1, g.GC)
	return r0, r1, c0, c1
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

// RegionNNZ returns the occupancy of grid rectangle [r0,r1)×[c0,c1)
// (grid coordinates, clamped).
func (g *Grid) RegionNNZ(r0, r1, c0, c1 int) int64 {
	r0, r1, c0, c1 = g.clampRect(r0, r1, c0, c1)
	return rectQuery(g.nnzSum, g.GC+1, r0, r1, c0, c1)
}

// RegionFootprint returns the byte footprint of the macro tile covering
// grid rectangle [r0,r1)×[c0,c1): the stored micro tiles plus their
// outer-level metadata.
func (g *Grid) RegionFootprint(r0, r1, c0, c1 int) int64 {
	r0, r1, c0, c1 = g.clampRect(r0, r1, c0, c1)
	return rectQuery(g.fpSum, g.GC+1, r0, r1, c0, c1)
}

// RegionTiles returns the number of stored (non-empty) micro tiles in the
// rectangle; the extractor's Aggregate scan cost is proportional to it.
func (g *Grid) RegionTiles(r0, r1, c0, c1 int) int64 {
	r0, r1, c0, c1 = g.clampRect(r0, r1, c0, c1)
	return rectQuery(g.tileSum, g.GC+1, r0, r1, c0, c1)
}

// TotalFootprint returns the footprint of the whole tiled matrix.
func (g *Grid) TotalFootprint() int64 { return g.RegionFootprint(0, g.GR, 0, g.GC) }

// TotalNNZ returns the matrix occupancy.
func (g *Grid) TotalNNZ() int64 { return g.RegionNNZ(0, g.GR, 0, g.GC) }

// Extents implements Summary.
func (g *Grid) Extents() (int, int) { return g.GR, g.GC }

// EachTile implements Summary: the non-empty cells are visited in
// row-major order, each with the footprint buildSumRow folded for it. A
// row's occupancy over its first c cells, cum(c), never decreases in c,
// so each stored tile is found by galloping from the last one: a row with
// t stored tiles costs O(t·log(GC/t)) probes instead of one per cell,
// which matters for the mostly empty grids of sparse matrices.
func (g *Grid) EachTile(f func(gr, gc int, nnz, fp int64)) {
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
		fp := NewAutoGrid(m, edge, edge).TotalFootprint()
		if bestFP < 0 || fp < bestFP {
			best, bestFP = edge, fp
		}
	}
	return best
}
