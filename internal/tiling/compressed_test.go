package tiling

import (
	"math/rand"
	"reflect"
	"testing"

	"drt/internal/gen"
	"drt/internal/tensor"
)

// TestCompressedGridEquivalence is the acceptance property for the
// compressed representation: on random matrices, dense and compressed grids
// must answer every rectangle query identically — including empty and
// out-of-bounds rectangles — in both micro-tile formats.
func TestCompressedGridEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		var m *tensor.CSR
		switch trial {
		case 0: // fully empty matrix
			m = tensor.FromCOO(tensor.NewCOO(rng.Intn(40)+1, rng.Intn(40)+1))
		case 1: // hyper-sparse: almost every grid row empty
			m = gen.HyperSparse(200, 7, rng.Int63())
		default:
			m = gen.Uniform(rng.Intn(80)+5, rng.Intn(80)+5, rng.Intn(400)+1, rng.Int63())
		}
		th, tw := rng.Intn(7)+1, rng.Intn(7)+1
		for _, f := range []Format{TUC, TCC} {
			d := NewGridWithFormat(m, th, tw, f)
			c := NewCompressedGridWithFormat(m, th, tw, f)
			if dr, dc := d.Extents(); dr != c.GR || dc != c.GC {
				t.Fatalf("trial %d: extents %dx%d vs %dx%d", trial, dr, dc, c.GR, c.GC)
			}
			if d.TotalNNZ() != c.TotalNNZ() || d.TotalFootprint() != c.TotalFootprint() {
				t.Fatalf("trial %d: totals diverge: nnz %d/%d fp %d/%d",
					trial, d.TotalNNZ(), c.TotalNNZ(), d.TotalFootprint(), c.TotalFootprint())
			}
			for q := 0; q < 40; q++ {
				// Rectangles deliberately spill outside the grid (negative
				// and past-the-end) and include empty/inverted ones.
				r0, r1 := rng.Intn(d.GR+4)-2, rng.Intn(d.GR+4)-2
				c0, c1 := rng.Intn(d.GC+4)-2, rng.Intn(d.GC+4)-2
				if got, want := c.RegionNNZ(r0, r1, c0, c1), d.RegionNNZ(r0, r1, c0, c1); got != want {
					t.Fatalf("trial %d: nnz[%d,%d)x[%d,%d) = %d, dense says %d", trial, r0, r1, c0, c1, got, want)
				}
				if got, want := c.RegionFootprint(r0, r1, c0, c1), d.RegionFootprint(r0, r1, c0, c1); got != want {
					t.Fatalf("trial %d: footprint[%d,%d)x[%d,%d) = %d, dense says %d", trial, r0, r1, c0, c1, got, want)
				}
				if got, want := c.RegionTiles(r0, r1, c0, c1), d.RegionTiles(r0, r1, c0, c1); got != want {
					t.Fatalf("trial %d: tiles[%d,%d)x[%d,%d) = %d, dense says %d", trial, r0, r1, c0, c1, got, want)
				}
			}
		}
	}
}

// TestCompressedGridEachTile checks both representations enumerate the same
// stored tiles in the same (row-major) order, each with the footprint a
// one-tile query returns.
func TestCompressedGridEachTile(t *testing.T) {
	type tile struct {
		r, c    int
		nnz, fp int64
	}
	collect := func(s Summary) []tile {
		var out []tile
		s.EachTile(func(gr, gc int, n, fp int64) {
			if q := s.RegionFootprint(gr, gr+1, gc, gc+1); fp != q {
				t.Errorf("tile (%d,%d): EachTile footprint %d, query %d", gr, gc, fp, q)
			}
			out = append(out, tile{gr, gc, n, fp})
		})
		return out
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		m := gen.Uniform(rng.Intn(60)+4, rng.Intn(60)+4, rng.Intn(200)+1, rng.Int63())
		dt := collect(NewGrid(m, 5, 3))
		ct := collect(NewCompressedGrid(m, 5, 3))
		if len(dt) != len(ct) {
			t.Fatalf("trial %d: %d tiles dense, %d compressed", trial, len(dt), len(ct))
		}
		for i := range dt {
			if dt[i] != ct[i] {
				t.Fatalf("trial %d: tile %d is %+v dense, %+v compressed", trial, i, dt[i], ct[i])
			}
		}
	}
}

// TestCompressedGrid3Equivalence is the 3-D analog: dense and compressed
// tensor grids must agree on every box query, empty and out-of-bounds boxes
// included.
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

// TestSummaryGridSelection pins the mode dispatch: explicit modes force the
// representation, Auto picks dense under the cell budget and compressed
// above it.
func TestSummaryGridSelection(t *testing.T) {
	small := gen.Uniform(64, 64, 100, 1)
	if _, ok := NewSummaryGrid(small, 8, 8, TUC, Dense).(*Grid); !ok {
		t.Fatal("Dense mode did not build a *Grid")
	}
	if _, ok := NewSummaryGrid(small, 8, 8, TUC, Compressed).(*CompressedGrid); !ok {
		t.Fatal("Compressed mode did not build a *CompressedGrid")
	}
	if _, ok := NewSummaryGrid(small, 8, 8, TUC, Auto).(*Grid); !ok {
		t.Fatal("Auto picked compressed for a tiny grid")
	}
	// 8192×8192 coordinate space at tile 1 → 2^26 grid cells, far past the
	// budget: Auto must switch to the compressed representation (the dense
	// one would allocate ~1.6 GB of prefix sums here).
	big := gen.HyperSparse(1<<13, 64, 2)
	if _, ok := NewSummaryGrid(big, 1, 1, TUC, Auto).(*CompressedGrid); !ok {
		t.Fatal("Auto kept the dense representation past the cell budget")
	}
	// The 3-D dispatch mirrors the 2-D one.
	x := gen.Tensor3(16, 16, 16, 50, 3)
	if _, ok := NewSummaryGrid3(x, 4, 4, 4, Auto).(*Grid3); !ok {
		t.Fatal("Auto picked compressed for a tiny 3-D grid")
	}
	if _, ok := NewSummaryGrid3(x, 4, 4, 4, Compressed).(*CompressedGrid3); !ok {
		t.Fatal("Compressed mode did not build a *CompressedGrid3")
	}
}

// BenchmarkGridConstruction compares the two representations on a
// hyper-sparse matrix whose grid is almost entirely empty cells — the
// full-scale regime the compressed grid exists for. Run with -benchmem: the
// dense prefix sums are ~100 MB/op here while the compressed build stays in
// the kilobytes (the ≥10× bytes/op acceptance margin of this PR).
func BenchmarkGridConstruction(b *testing.B) {
	m := gen.HyperSparse(1<<14, 1<<12, 7)
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewGrid(m, 8, 8)
		}
	})
	b.Run("compressed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewCompressedGrid(m, 8, 8)
		}
	})
}

// buildFromCounts builds m's summary with a SummaryBuilder fed m's
// per-tile occupancy: for each grid row, the occupied tile columns
// ascending and their non-zero counts.
func buildFromCounts(m *tensor.CSR, tileH, tileW int, f Format, mode Mode) Summary {
	sb := NewSummaryBuilder(m.Rows, m.Cols, tileH, tileW, f, mode)
	cnt := make([]int64, ceilDiv(m.Cols, tileW))
	for gr := range ceilDiv(m.Rows, tileH) {
		for i := gr * tileH; i < min((gr+1)*tileH, m.Rows); i++ {
			for _, j := range m.Idx[m.Ptr[i]:m.Ptr[i+1]] {
				cnt[j/tileW]++
			}
		}
		var cols []int
		var nnz []int64
		for c, n := range cnt {
			if n > 0 {
				cols, nnz = append(cols, c), append(nnz, n)
			}
		}
		sb.AddRow(cols, nnz)
		clear(cnt)
	}
	return sb.Summary()
}

// TestSummaryBuilder pins the row fold: per-tile counts folded by a
// SummaryBuilder must build exactly the summary NewSummaryGrid builds from
// the matrix, in every mode and format, and Auto must switch to the
// compressed representation past the cell budget.
func TestSummaryBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		var m *tensor.CSR
		switch trial {
		case 0:
			m = tensor.FromCOO(tensor.NewCOO(rng.Intn(40)+1, rng.Intn(40)+1))
		case 1:
			m = gen.HyperSparse(200, 7, rng.Int63())
		default:
			m = gen.Uniform(rng.Intn(80)+5, rng.Intn(80)+5, rng.Intn(400)+1, rng.Int63())
		}
		th, tw := rng.Intn(7)+1, rng.Intn(7)+1
		for _, f := range []Format{TUC, TCC} {
			for _, mode := range []Mode{Auto, Dense, Compressed} {
				want := NewSummaryGrid(m, th, tw, f, mode)
				if got := buildFromCounts(m, th, tw, f, mode); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (%v, mode %d): summary from counts %+v, from the matrix %+v", trial, f, mode, got, want)
				}
			}
		}
	}
	// 2^26 cells: building the dense grid here would allocate ~1.6 GB.
	if NewSummaryBuilder(1<<13, 1<<13, 1, 1, TUC, Auto).comp == nil {
		t.Fatal("Auto kept the dense representation past the cell budget")
	}
}
