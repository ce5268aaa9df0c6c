package tiling

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"drt/internal/gen"
	"drt/internal/tensor"
)

// tileCount is one occupied micro tile: its grid cell and non-zeros.
type tileCount struct {
	r, c int
	n    int64
}

// csrTiles returns m's occupied micro tiles in row-major order, counted
// straight from the CSR: the oracle every summary answer is checked
// against. It holds only occupied tiles, so it stays small on grids past
// the cell budget.
func csrTiles(m *tensor.CSR, tileH, tileW int) []tileCount {
	cnt := map[[2]int]int64{}
	for i := range m.Rows {
		for _, j := range m.Idx[m.Ptr[i]:m.Ptr[i+1]] {
			cnt[[2]int{i / tileH, j / tileW}]++
		}
	}
	out := make([]tileCount, 0, len(cnt))
	for k, n := range cnt {
		out = append(out, tileCount{k[0], k[1], n})
	}
	slices.SortFunc(out, func(a, b tileCount) int {
		if a.r != b.r {
			return a.r - b.r
		}
		return a.c - b.c
	})
	return out
}

// csrRegion sums the oracle's tiles inside [r0,r1)×[c0,c1).
func csrRegion(tiles []tileCount, f Format, tileH, r0, r1, c0, c1 int) (nnz, fp, n int64) {
	for _, t := range tiles {
		if t.r >= r0 && t.r < r1 && t.c >= c0 && t.c < c1 {
			nnz += t.n
			fp += MicroFootprintFormat(f, tileH, int(t.n))
			n++
		}
	}
	return nnz, fp, n
}

// buildFromTiles folds the oracle's tiles through a SummaryBuilder, one
// grid row at a time, the way workload preparation folds the product.
func buildFromTiles(m *tensor.CSR, tileH, tileW int, f Format, tiles []tileCount) *Grid {
	sb := NewSummaryBuilder(m.Rows, m.Cols, tileH, tileW, f)
	for r := range ceilDiv(m.Rows, tileH) {
		var cols []int
		var nnz []int64
		for len(tiles) > 0 && tiles[0].r == r {
			cols, nnz = append(cols, tiles[0].c), append(nnz, tiles[0].n)
			tiles = tiles[1:]
		}
		sb.AddRow(cols, nnz)
	}
	return sb.Summary()
}

// testBoxes returns the rectangles a summary of a gr×gc grid at block
// edge s is asked about: random ones spilling past every edge, and the
// cases the block split must get right — empty, inverted and out-of-range
// boxes, boxes thinner than a block, and boxes ending in the ragged last
// block.
func testBoxes(rng *rand.Rand, gr, gc, s int) [][4]int {
	boxes := [][4]int{
		{0, gr, 0, gc}, {0, 0, 0, gc}, {gr, gr, 0, gc}, {0, gr, gc, gc},
		{gr / 2, gr/2 - 1, 0, gc}, {0, gr, gc, 0},
		{gr, gr + 3, 0, gc}, {-5, -1, 0, gc}, {0, gr, gc + 1, gc + 4}, {-3, gr + 3, -3, gc + 3},
	}
	span := func(ext int) (int, int) {
		lo := rng.Intn(ext+4) - 2
		return lo, lo + rng.Intn(ext+4) - 2
	}
	thin := func(ext int) (int, int) {
		lo := rng.Intn(ext + 1)
		return lo, lo + rng.Intn(s+1)
	}
	ragged := func(ext int) (int, int) { return rng.Intn(ext + 1), ext }
	for range 40 {
		r0, r1 := span(gr)
		c0, c1 := span(gc)
		boxes = append(boxes, [4]int{r0, r1, c0, c1})
	}
	for range 15 {
		r0, r1 := thin(gr)
		c0, c1 := span(gc)
		boxes = append(boxes, [4]int{r0, r1, c0, c1})
		r0, r1 = span(gr)
		c0, c1 = thin(gc)
		boxes = append(boxes, [4]int{r0, r1, c0, c1})
		r0, r1 = ragged(gr)
		c0, c1 = ragged(gc)
		boxes = append(boxes, [4]int{r0, r1, c0, c1})
		r0, r1 = ragged(gr)
		c0, c1 = span(gc)
		boxes = append(boxes, [4]int{r0, r1, c0, c1})
	}
	return boxes
}

// checkGrid builds m's summary at block edge s (0 keeps the extent rule)
// and checks every answer against counts taken straight from the CSR:
// each box's occupancy, footprint and stored tiles, the totals, the tiles
// EachTile visits, and the grid a SummaryBuilder folds from per-tile
// counts, which must be the same grid.
func checkGrid(t *testing.T, name string, m *tensor.CSR, tileH, tileW int, f Format, s int, boxes func(gr, gc, s int) [][4]int) {
	t.Helper()
	forcedBlockEdge = s
	defer func() { forcedBlockEdge = 0 }()
	g := NewSummaryGrid(m, tileH, tileW, f, Auto)
	if s > 0 && g.s != s {
		t.Fatalf("%s: block edge %d, want %d", name, g.s, s)
	}
	if gr, gc := g.Extents(); gr != ceilDiv(m.Rows, tileH) || gc != ceilDiv(m.Cols, tileW) {
		t.Fatalf("%s: extents %dx%d for a %dx%d matrix in %dx%d tiles", name, gr, gc, m.Rows, m.Cols, tileH, tileW)
	}
	tiles := csrTiles(m, tileH, tileW)
	for _, b := range boxes(g.GR, g.GC, g.s) {
		wn, wf, wt := csrRegion(tiles, f, tileH, b[0], b[1], b[2], b[3])
		if got := g.RegionNNZ(b[0], b[1], b[2], b[3]); got != wn {
			t.Fatalf("%s: nnz%v = %d, want %d", name, b, got, wn)
		}
		if got := g.RegionFootprint(b[0], b[1], b[2], b[3]); got != wf {
			t.Fatalf("%s: footprint%v = %d, want %d", name, b, got, wf)
		}
		if got := g.RegionTiles(b[0], b[1], b[2], b[3]); got != wt {
			t.Fatalf("%s: tiles%v = %d, want %d", name, b, got, wt)
		}
	}
	if _, wf, _ := csrRegion(tiles, f, tileH, 0, g.GR, 0, g.GC); g.TotalFootprint() != wf {
		t.Fatalf("%s: total footprint %d, want %d", name, g.TotalFootprint(), wf)
	}
	var visited []tileCount
	g.EachTile(func(r, c int, n, fp int64) {
		if want := MicroFootprintFormat(f, tileH, int(n)); fp != want {
			t.Errorf("%s: tile (%d,%d) visited with footprint %d, want %d", name, r, c, fp, want)
		}
		visited = append(visited, tileCount{r, c, n})
	})
	if !slices.Equal(visited, tiles) {
		t.Fatalf("%s: EachTile visits %v, want %v", name, visited, tiles)
	}
	if got := buildFromTiles(m, tileH, tileW, f, tiles); !reflect.DeepEqual(got, g) {
		t.Fatalf("%s: the summary folded from per-tile counts differs from the one built from the matrix", name)
	}
}

// TestGridMatchesNaive is the summary's property test: on matrices of
// every shape the generators produce, in both formats, square and
// non-square micro tiles and block edges 1 to 8, and on a grid past the
// cell budget at the block edge its extents pick, every answer equals the
// counts taken straight from the CSR.
func TestGridMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	boxes := func(gr, gc, s int) [][4]int { return testBoxes(rng, gr, gc, s) }
	for _, tc := range []struct {
		name string
		m    *tensor.CSR
	}{
		{"empty", tensor.FromCOO(tensor.NewCOO(37, 23))},
		{"hypersparse", gen.HyperSparse(200, 7, 2)},
		{"uniform", gen.Uniform(90, 70, 900, 3)},
		{"banded", gen.Banded(120, 6, 3, 0.7, 4)},
		{"rmat", gen.RMAT(128, 1500, 0.57, 0.19, 0.19, 5)},
		{"tall", gen.TallSkinny(150, 20, 500, 6)},
	} {
		for _, tile := range [][2]int{{1, 1}, {4, 4}, {3, 2}, {2, 5}} {
			for _, f := range []Format{TUC, TCC} {
				for _, s := range []int{1, 2, 4, 8} {
					name := fmt.Sprintf("%s/%dx%d/%v/s%d", tc.name, tile[0], tile[1], f, s)
					checkGrid(t, name, tc.m, tile[0], tile[1], f, s, boxes)
				}
			}
		}
	}

	// 8192² cells at micro tile 1 (see TestSummaryGridSelection).
	checkGrid(t, "past-budget", gen.HyperSparse(1<<13, 64, 7), 1, 1, TUC, 0, boxes)
}

// TestSummaryGridSelection pins the block-edge rule: a grid within
// DefaultCellBudget keeps per-cell sums, and one past it sums the
// smallest power-of-two blocks whose block grid fits blockCellBudget.
// The rule reads the extents alone, so NewSummaryGrid and a
// SummaryBuilder pick the same edge, and neither allocates per-cell sums
// past the budget. The 3-D summary keeps a grid within the budget dense.
func TestSummaryGridSelection(t *testing.T) {
	if s := NewSummaryGrid(gen.Uniform(64, 64, 100, 1), 8, 8, TUC, Auto).s; s != 1 {
		t.Fatalf("a tiny grid got block edge %d, want 1", s)
	}
	// pwtk at micro tile 4 and scale 16: 3,407² cells.
	if s := blockEdge(3407, 3407); s != 8 {
		t.Fatalf("a 3407² grid got block edge %d, want 8", s)
	}
	// 8192² cells at micro tile 1, 2^26 cells: per-cell sums would take
	// 1.6 GB.
	g := NewSummaryGrid(gen.HyperSparse(1<<13, 64, 2), 1, 1, TUC, Auto)
	if g.s != 16 || len(g.nnzSum) != 513*513 {
		t.Fatalf("past the budget: block edge %d with %d sums, want 16 with 513²", g.s, len(g.nnzSum))
	}
	if s := NewSummaryBuilder(1<<13, 1<<13, 1, 1, TUC).g.s; s != 16 {
		t.Fatalf("the builder picked block edge %d past the budget, want 16", s)
	}
	if _, ok := NewSummaryGrid3(gen.Tensor3(16, 16, 16, 50, 3), 4, 4, 4).(*Grid3); !ok {
		t.Fatal("NewSummaryGrid3 compressed a tiny 3-D grid")
	}
}

// FuzzSummaryGrid checks one summary against the CSR per input: the
// matrix, the micro tile shape, the block edge and the boxes are all
// decoded from the fuzz bytes.
func FuzzSummaryGrid(f *testing.F) {
	f.Add([]byte{12, 9, 2, 3, 3, 40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{30, 30, 1, 1, 8, 200, 0, 29, 0, 29, 7, 9, 3, 17})
	f.Add([]byte{5, 40, 4, 1, 2, 0, 1, 5, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		rows, cols := next()%48+1, next()%48+1
		tileH, tileW, s := next()%6+1, next()%6+1, next()%9+1
		nnz := next() % (rows*cols + 1)
		m := gen.Uniform(rows, cols, nnz, int64(next()))
		boxes := func(gr, gc, _ int) [][4]int {
			out := [][4]int{{0, gr, 0, gc}}
			for len(data) >= 4 {
				out = append(out, [4]int{next()%(gr+4) - 2, next()%(gr+4) - 2, next()%(gc+4) - 2, next()%(gc+4) - 2})
			}
			return out
		}
		checkGrid(t, "fuzz", m, tileH, tileW, TUC, s, boxes)
	})
}

// gridAt builds m's summary at block edge s.
func gridAt(m *tensor.CSR, tileH, tileW int, f Format, s int) *Grid {
	defer SetBlockEdge(s)()
	return NewSummaryGrid(m, tileH, tileW, f, Auto)
}

// randomMatrix returns trial's matrix: empty at trial 0, hyper-sparse
// (almost every grid row empty) at trial 1, uniform after.
func randomMatrix(rng *rand.Rand, trial int) *tensor.CSR {
	switch trial {
	case 0:
		return tensor.FromCOO(tensor.NewCOO(rng.Intn(40)+1, rng.Intn(40)+1))
	case 1:
		return gen.HyperSparse(200, 7, rng.Int63())
	}
	return gen.Uniform(rng.Intn(80)+5, rng.Intn(80)+5, rng.Intn(400)+1, rng.Int63())
}

// TestCompressedGridEquivalence checks the compressed representation, the
// cell lists a grid keeps past block edge 1, against per-cell sums: on
// random matrices, in both micro-tile formats, a grid at block edge 2, 4
// or 8 must answer every rectangle query exactly as the grid at block
// edge 1 does, empty, inverted and out-of-range rectangles included.
func TestCompressedGridEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		m := randomMatrix(rng, trial)
		th, tw := rng.Intn(7)+1, rng.Intn(7)+1
		for _, f := range []Format{TUC, TCC} {
			d := gridAt(m, th, tw, f, 1)
			for _, s := range []int{2, 4, 8} {
				c := gridAt(m, th, tw, f, s)
				if c.GR != d.GR || c.GC != d.GC {
					t.Fatalf("trial %d s%d: extents %dx%d vs %dx%d", trial, s, c.GR, c.GC, d.GR, d.GC)
				}
				if c.TotalFootprint() != d.TotalFootprint() {
					t.Fatalf("trial %d s%d: total footprint %d, per-cell sums say %d", trial, s, c.TotalFootprint(), d.TotalFootprint())
				}
				for q := 0; q < 40; q++ {
					r0, r1 := rng.Intn(d.GR+4)-2, rng.Intn(d.GR+4)-2
					c0, c1 := rng.Intn(d.GC+4)-2, rng.Intn(d.GC+4)-2
					if got, want := c.RegionNNZ(r0, r1, c0, c1), d.RegionNNZ(r0, r1, c0, c1); got != want {
						t.Fatalf("trial %d s%d: nnz[%d,%d)x[%d,%d) = %d, per-cell sums say %d", trial, s, r0, r1, c0, c1, got, want)
					}
					if got, want := c.RegionFootprint(r0, r1, c0, c1), d.RegionFootprint(r0, r1, c0, c1); got != want {
						t.Fatalf("trial %d s%d: footprint[%d,%d)x[%d,%d) = %d, per-cell sums say %d", trial, s, r0, r1, c0, c1, got, want)
					}
					if got, want := c.RegionTiles(r0, r1, c0, c1), d.RegionTiles(r0, r1, c0, c1); got != want {
						t.Fatalf("trial %d s%d: tiles[%d,%d)x[%d,%d) = %d, per-cell sums say %d", trial, s, r0, r1, c0, c1, got, want)
					}
				}
			}
		}
	}
}

// TestCompressedGridEachTile checks that EachTile galloping over per-cell
// sums (block edge 1) and walking the row lists (block edge 4) visit the
// same stored tiles in the same row-major order, each with the footprint
// a one-tile query returns.
func TestCompressedGridEachTile(t *testing.T) {
	type tile struct {
		r, c    int
		nnz, fp int64
	}
	collect := func(g *Grid) []tile {
		var out []tile
		g.EachTile(func(gr, gc int, n, fp int64) {
			if q := g.RegionFootprint(gr, gr+1, gc, gc+1); fp != q {
				t.Errorf("tile (%d,%d) at block edge %d: EachTile footprint %d, query %d", gr, gc, g.s, fp, q)
			}
			out = append(out, tile{gr, gc, n, fp})
		})
		return out
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		m := gen.Uniform(rng.Intn(60)+4, rng.Intn(60)+4, rng.Intn(200)+1, rng.Int63())
		dt := collect(gridAt(m, 5, 3, TUC, 1))
		ct := collect(gridAt(m, 5, 3, TUC, 4))
		if !slices.Equal(dt, ct) {
			t.Fatalf("trial %d: block edge 1 visits %+v, block edge 4 visits %+v", trial, dt, ct)
		}
	}
}

// TestSummaryBuilder pins the row fold: per-tile counts folded by a
// SummaryBuilder must build exactly the summary NewSummaryGrid builds from
// the matrix, in both formats and at block edges 1, 2 and 4, and past the
// cell budget the builder must sum blocks without a per-cell row buffer.
func TestSummaryBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		m := randomMatrix(rng, trial)
		th, tw := rng.Intn(7)+1, rng.Intn(7)+1
		tiles := csrTiles(m, th, tw)
		for _, f := range []Format{TUC, TCC} {
			for _, s := range []int{1, 2, 4} {
				restore := SetBlockEdge(s)
				want := NewSummaryGrid(m, th, tw, f, Auto)
				got := buildFromTiles(m, th, tw, f, tiles)
				restore()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (%v, s%d): summary from counts %+v, from the matrix %+v", trial, f, s, got, want)
				}
			}
		}
	}
	// 2^26 cells: per-cell sums here would allocate ~1.6 GB.
	if b := NewSummaryBuilder(1<<13, 1<<13, 1, 1, TUC); b.g.s == 1 || b.row != nil {
		t.Fatal("the builder kept per-cell sums past the cell budget")
	}
}

func TestGridTotals(t *testing.T) {
	m := gen.RMAT(128, 900, 0.57, 0.19, 0.19, 2)
	g := NewSummaryGrid(m, 32, 32, TUC, Auto)
	if got := g.RegionNNZ(0, g.GR, 0, g.GC); got != int64(m.NNZ()) {
		t.Fatalf("total nnz = %d, want %d", got, m.NNZ())
	}
	if g.GR != 4 || g.GC != 4 {
		t.Fatalf("grid extents %dx%d, want 4x4", g.GR, g.GC)
	}
}

func TestGridRaggedEdges(t *testing.T) {
	// 33x33 matrix with 32x32 tiles → 2x2 grid with ragged last row/col.
	m := tensor.NewCOO(33, 33)
	m.Append(32, 32, 1) // lone point in the ragged corner tile
	g := NewSummaryGrid(tensor.FromCOO(m), 32, 32, TUC, Auto)
	if g.GR != 2 || g.GC != 2 {
		t.Fatalf("grid %dx%d, want 2x2", g.GR, g.GC)
	}
	if g.RegionNNZ(1, 2, 1, 2) != 1 {
		t.Fatal("ragged corner tile lost its point")
	}
	if g.RegionNNZ(0, 1, 0, 1) != 0 {
		t.Fatal("phantom occupancy in empty tile")
	}
}

func TestMicroFootprint(t *testing.T) {
	if MicroFootprint(32, 0) != 0 {
		t.Fatal("empty tile must not be stored")
	}
	// 32-row CSR: 33 segment words + nnz coords/vals + 3 overhead words.
	want := int64(33*tensor.MetaBytes + 5*(tensor.MetaBytes+tensor.ValueBytes) + TileOverheadWords*tensor.MetaBytes)
	if got := MicroFootprint(32, 5); got != want {
		t.Fatalf("MicroFootprint(32,5) = %d, want %d", got, want)
	}
}

func TestGridMonotonicity(t *testing.T) {
	// Footprint must be monotone under rectangle inclusion: the property
	// DRT's growth loop depends on.
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%40) + 10
		m := gen.Uniform(n, n, n*2, seed)
		g := NewSummaryGrid(m, 4, 4, TUC, Auto)
		r0, c0 := rng.Intn(g.GR), rng.Intn(g.GC)
		r1, c1 := r0+rng.Intn(g.GR-r0)+1, c0+rng.Intn(g.GC-c0)+1
		inner := g.RegionFootprint(r0, r1, c0, c1)
		outer := g.RegionFootprint(r0, r1+1, c0, c1+1)
		return outer >= inner && g.RegionNNZ(r0, r1, c0, c1) <= g.RegionNNZ(r0, r1+1, c0, c1+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func naive3(x *tensor.CSF3, ti, tj, tk, i0, i1, j0, j1, k0, k1 int) (nnz int64) {
	c := x.ToCOO3()
	for p := 0; p < c.Len(); p++ {
		gi, gj, gk := c.Is[p]/ti, c.Js[p]/tj, c.Ks[p]/tk
		if gi >= i0 && gi < i1 && gj >= j0 && gj < j1 && gk >= k0 && gk < k1 {
			nnz++
		}
	}
	return
}

func TestGrid3MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		x := gen.Tensor3(rng.Intn(20)+4, rng.Intn(20)+4, rng.Intn(20)+4, rng.Intn(150)+10, rng.Int63())
		ti, tj, tk := rng.Intn(4)+1, rng.Intn(4)+1, rng.Intn(4)+1
		g := NewGrid3(x, ti, tj, tk)
		for q := 0; q < 15; q++ {
			i0, i1 := rng.Intn(g.GI+1), rng.Intn(g.GI+1)
			j0, j1 := rng.Intn(g.GJ+1), rng.Intn(g.GJ+1)
			k0, k1 := rng.Intn(g.GK+1), rng.Intn(g.GK+1)
			if i1 < i0 {
				i0, i1 = i1, i0
			}
			if j1 < j0 {
				j0, j1 = j1, j0
			}
			if k1 < k0 {
				k0, k1 = k1, k0
			}
			want := naive3(x, ti, tj, tk, i0, i1, j0, j1, k0, k1)
			if got := g.RegionNNZ(i0, i1, j0, j1, k0, k1); got != want {
				t.Fatalf("trial %d: box nnz = %d, want %d", trial, got, want)
			}
		}
	}
}

func TestGrid3Totals(t *testing.T) {
	x := gen.Tensor3(30, 20, 10, 200, 4)
	g := NewGrid3(x, 8, 8, 8)
	if got := g.RegionNNZ(0, g.GI, 0, g.GJ, 0, g.GK); got != int64(x.NNZ()) {
		t.Fatalf("total nnz = %d, want %d", got, x.NNZ())
	}
	if g.RegionFootprint(0, g.GI, 0, g.GJ, 0, g.GK) <= 0 {
		t.Fatal("total footprint must be positive")
	}
	if g.RegionTiles(0, g.GI, 0, g.GJ, 0, g.GK) <= 0 {
		t.Fatal("no stored micro tiles found")
	}
}

func TestTCCFootprintBelowTUCWhenHyperSparse(t *testing.T) {
	// A 32-row tile with 2 non-zeros: T-UC pays the 33-word segment
	// array; T-CC pays only for the 2 occupied rows.
	tuc := MicroFootprintFormat(TUC, 32, 2)
	tcc := MicroFootprintFormat(TCC, 32, 2)
	if tcc >= tuc {
		t.Fatalf("T-CC %d not below T-UC %d on a hyper-sparse tile", tcc, tuc)
	}
	// Near-dense tiles: T-CC's extra row-coordinate list makes it the
	// (slightly) larger representation.
	tucD := MicroFootprintFormat(TUC, 32, 1024)
	tccD := MicroFootprintFormat(TCC, 32, 1024)
	if tccD < tucD {
		t.Fatalf("T-CC %d below T-UC %d on a dense tile", tccD, tucD)
	}
	if MicroFootprintFormat(TCC, 32, 0) != 0 {
		t.Fatal("empty tile must not be stored in any format")
	}
}

func TestGridWithFormat(t *testing.T) {
	m := gen.RMAT(256, 600, 0.57, 0.19, 0.19, 9) // hyper-sparse tiles
	gTUC := NewSummaryGrid(m, 32, 32, TUC, Auto)
	gTCC := NewSummaryGrid(m, 32, 32, TCC, Auto)
	if gTCC.RegionNNZ(0, gTCC.GR, 0, gTCC.GC) != gTUC.RegionNNZ(0, gTUC.GR, 0, gTUC.GC) {
		t.Fatal("format changed occupancy")
	}
	if gTCC.TotalFootprint() >= gTUC.TotalFootprint() {
		t.Fatalf("T-CC grid footprint %d not below T-UC %d", gTCC.TotalFootprint(), gTUC.TotalFootprint())
	}
}

func TestSuggestMicroTile(t *testing.T) {
	// Scattered hyper-sparse data favors small tiles (a singleton tile's
	// segment array scales with the edge), while dense-blocked data
	// amortizes the segment array over many points and favors large
	// tiles. The suggestion must be the footprint argmin in both cases.
	scattered := gen.Uniform(1024, 1024, 800, 3)
	dense := gen.Banded(512, 48, 8, 0.95, 4)
	for _, tc := range []struct {
		name string
		m    *tensor.CSR
	}{{"scattered", scattered}, {"dense", dense}} {
		edge := SuggestMicroTile(tc.m, 4, 8, 16, 32, 64)
		best := edge
		var bestFP int64 = -1
		for _, e := range []int{4, 8, 16, 32, 64} {
			fp := NewSummaryGrid(tc.m, e, e, TUC, Auto).TotalFootprint()
			if bestFP < 0 || fp < bestFP {
				best, bestFP = e, fp
			}
		}
		if edge != best {
			t.Fatalf("%s: suggestion %d, footprint argmin %d", tc.name, edge, best)
		}
	}
	if s, d := SuggestMicroTile(scattered, 4, 64), SuggestMicroTile(dense, 4, 64); s > d {
		t.Fatalf("scattered suggestion %d above dense %d", s, d)
	}
	// Defaults run without candidates.
	if e := SuggestMicroTile(scattered); e < 8 || e > 64 {
		t.Fatalf("default suggestion %d outside candidate set", e)
	}
}

// TestCompressedGrid3Equivalence pins the 3-D summaries: dense and
// compressed tensor grids must agree on every box query, empty and
// out-of-bounds boxes included.
func TestCompressedGrid3Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		var x *tensor.CSF3
		if trial == 0 {
			x = tensor.FromCOO3(tensor.NewCOO3(8, 8, 8)) // empty tensor
		} else {
			x = gen.Tensor3(rng.Intn(20)+4, rng.Intn(20)+4, rng.Intn(20)+4, rng.Intn(200)+1, rng.Int63())
		}
		ti, tj, tk := rng.Intn(4)+1, rng.Intn(4)+1, rng.Intn(4)+1
		d := NewGrid3(x, ti, tj, tk)
		c := NewCompressedGrid3(x, ti, tj, tk)
		di, dj, dk := d.Extents3()
		if ci, cj, ck := c.Extents3(); ci != di || cj != dj || ck != dk {
			t.Fatalf("trial %d: extents diverge", trial)
		}
		for q := 0; q < 40; q++ {
			i0, i1 := rng.Intn(di+4)-2, rng.Intn(di+4)-2
			j0, j1 := rng.Intn(dj+4)-2, rng.Intn(dj+4)-2
			k0, k1 := rng.Intn(dk+4)-2, rng.Intn(dk+4)-2
			if got, want := c.RegionNNZ(i0, i1, j0, j1, k0, k1), d.RegionNNZ(i0, i1, j0, j1, k0, k1); got != want {
				t.Fatalf("trial %d: box nnz %d, dense says %d", trial, got, want)
			}
			if got, want := c.RegionFootprint(i0, i1, j0, j1, k0, k1), d.RegionFootprint(i0, i1, j0, j1, k0, k1); got != want {
				t.Fatalf("trial %d: box footprint %d, dense says %d", trial, got, want)
			}
			if got, want := c.RegionTiles(i0, i1, j0, j1, k0, k1), d.RegionTiles(i0, i1, j0, j1, k0, k1); got != want {
				t.Fatalf("trial %d: box tiles %d, dense says %d", trial, got, want)
			}
		}
	}
}

// BenchmarkGridConstruction builds the summary of a hyper-sparse matrix
// whose grid is almost entirely empty cells: at micro tile 8 the grid
// fits the cell budget and keeps per-cell sums; at micro tile 2 it is
// past the budget and keeps block sums and cell lists instead. Run with
// -benchmem to see the memory each costs.
func BenchmarkGridConstruction(b *testing.B) {
	m := gen.HyperSparse(1<<14, 1<<12, 7)
	for _, tc := range []struct {
		name string
		tile int
	}{{"dense", 8}, {"blocked", 2}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				NewSummaryGrid(m, tc.tile, tc.tile, TUC, Auto)
			}
		})
	}
}
