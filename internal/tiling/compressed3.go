package tiling

import (
	"fmt"
	"sort"

	"drt/internal/tensor"
)

// Summary3 is the 3-D micro-tile summary: box queries over a GI×GJ×GK
// micro-tile grid, implemented by both the dense Grid3 and the
// CompressedGrid3. core.TensorView adapts a Summary3 to the growth
// kernel's View interface.
type Summary3 interface {
	RegionNNZ(i0, i1, j0, j1, k0, k1 int) int64
	RegionFootprint(i0, i1, j0, j1, k0, k1 int) int64
	RegionTiles(i0, i1, j0, j1, k0, k1 int) int64
	// Extents3 returns the grid shape (GI, GJ, GK).
	Extents3() (gi, gj, gk int)
}

var (
	_ Summary3 = (*Grid3)(nil)
	_ Summary3 = (*CompressedGrid3)(nil)
)

// NewSummaryGrid3 tiles x into ti×tj×tk micro tiles: a dense Grid3 while
// the grid fits DefaultCellBudget (it likewise stores three int64
// prefix-sum arrays over all cells), a CompressedGrid3 past it.
func NewSummaryGrid3(x *tensor.CSF3, ti, tj, tk int) Summary3 {
	gi, gj, gk := ceilDiv(x.I, ti), ceilDiv(x.J, tj), ceilDiv(x.K, tk)
	if int64(gi)*int64(gj)*int64(gk) > DefaultCellBudget {
		return NewCompressedGrid3(x, ti, tj, tk)
	}
	return NewGrid3(x, ti, tj, tk)
}

// CompressedGrid3 stores only the occupied micro-tile cells of a 3-tensor
// in a three-level CSF-like structure: sorted occupied I planes, each
// holding its sorted occupied (I,J) fibers, each holding its sorted
// occupied K cells with running occupancy/footprint sums. Memory is
// O(occupied tiles); a box query walks the occupied (I,J) fibers in range
// and answers each with two binary searches over its K cells.
type CompressedGrid3 struct {
	I, J, K    int // parent shape
	TI, TJ, TK int // micro tile shape
	GI, GJ, GK int

	occI   []int   // sorted occupied gi planes
	iPtr   []int   // len(occI)+1 offsets into pairJ
	pairJ  []int   // occupied gj fibers, sorted within each plane
	jPtr   []int   // len(pairJ)+1 offsets into cellK
	cellK  []int   // occupied gk cells, sorted within each fiber
	nnzCum []int64 // running sums over cells, one leading zero
	fpCum  []int64
}

// NewCompressedGrid3 tiles x into ti×tj×tk micro tiles in the compressed
// representation.
func NewCompressedGrid3(x *tensor.CSF3, ti, tj, tk int) *CompressedGrid3 {
	if ti < 1 || tj < 1 || tk < 1 {
		panic(fmt.Sprintf("tiling: invalid micro tile shape %dx%dx%d", ti, tj, tk))
	}
	g := &CompressedGrid3{
		I: x.I, J: x.J, K: x.K,
		TI: ti, TJ: tj, TK: tk,
		GI: ceilDiv(x.I, ti), GJ: ceilDiv(x.J, tj), GK: ceilDiv(x.K, tk),
	}
	// Collect the occupied (gi, gj, gk) triples with multiplicity, then
	// sort and run-length encode into the three-level structure. Memory is
	// O(nnz) transient, never O(GI×GJ×GK).
	type cell struct{ i, j, k int }
	pts := make([]cell, 0, x.NNZ())
	for r := 0; r < len(x.RootCoords); r++ {
		i, lo, hi := x.Slice(r)
		gi := i / ti
		for m := lo; m < hi; m++ {
			gj := x.MidCoords[m] / tj
			f := x.LeafFiber(m)
			for _, k := range f.Coords {
				pts = append(pts, cell{gi, gj, k / tk})
			}
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].i != pts[b].i {
			return pts[a].i < pts[b].i
		}
		if pts[a].j != pts[b].j {
			return pts[a].j < pts[b].j
		}
		return pts[a].k < pts[b].k
	})
	g.iPtr = append(g.iPtr, 0)
	g.jPtr = append(g.jPtr, 0)
	g.nnzCum = append(g.nnzCum, 0)
	g.fpCum = append(g.fpCum, 0)
	for p := 0; p < len(pts); {
		c := pts[p]
		n := int64(0)
		for p < len(pts) && pts[p] == c {
			n++
			p++
		}
		newPlane := len(g.occI) == 0 || g.occI[len(g.occI)-1] != c.i
		if newPlane {
			g.occI = append(g.occI, c.i)
			g.iPtr = append(g.iPtr, len(g.pairJ))
		}
		if newPlane || g.pairJ[len(g.pairJ)-1] != c.j {
			g.pairJ = append(g.pairJ, c.j)
			g.jPtr = append(g.jPtr, len(g.cellK))
		}
		g.cellK = append(g.cellK, c.k)
		g.nnzCum = append(g.nnzCum, g.nnzCum[len(g.nnzCum)-1]+n)
		// A micro tile of a CSF tensor is modeled as a two-level fiber
		// structure over its TI slices, matching Grid3.
		g.fpCum = append(g.fpCum, g.fpCum[len(g.fpCum)-1]+MicroFootprint(ti, int(n)))
		g.iPtr[len(g.iPtr)-1] = len(g.pairJ)
		g.jPtr[len(g.jPtr)-1] = len(g.cellK)
	}
	return g
}

func (g *CompressedGrid3) clampBox(i0, i1, j0, j1, k0, k1 int) (int, int, int, int, int, int) {
	i0, i1 = clampSpan(i0, i1, g.GI)
	j0, j1 = clampSpan(j0, j1, g.GJ)
	k0, k1 = clampSpan(k0, k1, g.GK)
	return i0, i1, j0, j1, k0, k1
}

// query accumulates nnz/footprint/tile counts over the grid box.
func (g *CompressedGrid3) query(i0, i1, j0, j1, k0, k1 int) (nnz, fp, tiles int64) {
	i0, i1, j0, j1, k0, k1 = g.clampBox(i0, i1, j0, j1, k0, k1)
	ia := sort.SearchInts(g.occI, i0)
	ib := sort.SearchInts(g.occI, i1)
	for t := ia; t < ib; t++ {
		jLo, jHi := g.iPtr[t], g.iPtr[t+1]
		fibers := g.pairJ[jLo:jHi]
		ja := jLo + sort.SearchInts(fibers, j0)
		jb := jLo + sort.SearchInts(fibers, j1)
		for u := ja; u < jb; u++ {
			kLo, kHi := g.jPtr[u], g.jPtr[u+1]
			cells := g.cellK[kLo:kHi]
			s := kLo + sort.SearchInts(cells, k0)
			e := kLo + sort.SearchInts(cells, k1)
			nnz += g.nnzCum[e] - g.nnzCum[s]
			fp += g.fpCum[e] - g.fpCum[s]
			tiles += int64(e - s)
		}
	}
	return nnz, fp, tiles
}

// RegionNNZ implements Summary3.
func (g *CompressedGrid3) RegionNNZ(i0, i1, j0, j1, k0, k1 int) int64 {
	n, _, _ := g.query(i0, i1, j0, j1, k0, k1)
	return n
}

// RegionFootprint implements Summary3.
func (g *CompressedGrid3) RegionFootprint(i0, i1, j0, j1, k0, k1 int) int64 {
	_, fp, _ := g.query(i0, i1, j0, j1, k0, k1)
	return fp
}

// RegionTiles implements Summary3.
func (g *CompressedGrid3) RegionTiles(i0, i1, j0, j1, k0, k1 int) int64 {
	_, _, tc := g.query(i0, i1, j0, j1, k0, k1)
	return tc
}

// Extents3 implements Summary3.
func (g *CompressedGrid3) Extents3() (int, int, int) { return g.GI, g.GJ, g.GK }
