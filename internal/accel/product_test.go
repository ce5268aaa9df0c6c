package accel

import (
	"fmt"
	"reflect"
	"testing"

	"drt/internal/gen"
	"drt/internal/kernels"
	"drt/internal/tensor"
	"drt/internal/tiling"
)

// sameAnswers reports where two summaries of the same matrix first
// disagree: their extents and totals, every micro tile's nnz, footprint
// and stored-tile count, and the tiles EachTile visits.
func sameAnswers(got, want tiling.Summary) error {
	gr, gc := want.Extents()
	if r, c := got.Extents(); r != gr || c != gc {
		return fmt.Errorf("extents %dx%d, want %dx%d", r, c, gr, gc)
	}
	if got.TotalNNZ() != want.TotalNNZ() || got.TotalFootprint() != want.TotalFootprint() {
		return fmt.Errorf("totals nnz %d fp %d, want %d %d", got.TotalNNZ(), got.TotalFootprint(), want.TotalNNZ(), want.TotalFootprint())
	}
	for r := range gr {
		for c := range gc {
			if g, w := got.RegionNNZ(r, r+1, c, c+1), want.RegionNNZ(r, r+1, c, c+1); g != w {
				return fmt.Errorf("tile (%d,%d): nnz %d, want %d", r, c, g, w)
			}
			if g, w := got.RegionFootprint(r, r+1, c, c+1), want.RegionFootprint(r, r+1, c, c+1); g != w {
				return fmt.Errorf("tile (%d,%d): footprint %d, want %d", r, c, g, w)
			}
			if g, w := got.RegionTiles(r, r+1, c, c+1), want.RegionTiles(r, r+1, c, c+1); g != w {
				return fmt.Errorf("tile (%d,%d): tiles %d, want %d", r, c, g, w)
			}
		}
	}
	type tile struct {
		r, c  int
		n, fp int64
	}
	var gt, wt []tile
	got.EachTile(func(r, c int, n, fp int64) { gt = append(gt, tile{r, c, n, fp}) })
	want.EachTile(func(r, c int, n, fp int64) { wt = append(wt, tile{r, c, n, fp}) })
	if !reflect.DeepEqual(gt, wt) {
		return fmt.Errorf("EachTile visits %d tiles, want %d", len(gt), len(wt))
	}
	return nil
}

// TestReferencePassMatchesGustavson pins the structural reference: a
// workload's output grid GZ must answer every query exactly as
// tiling.NewSummaryGrid over kernels.Gustavson's product does, in the
// same representation, and its MACCs must equal Gustavson's. The
// generators' values never cancel, so the structural and numeric products
// coincide. It covers dense and compressed grids, 1 and 3 workers (the
// pass is bit-identical across worker counts), square and rectangular
// operands, both micro-tile formats, and a Retile to another micro tile.
func TestReferencePassMatchesGustavson(t *testing.T) {
	sq := gen.RMAT(200, 2400, 0.57, 0.19, 0.19, 51)
	ra := gen.Uniform(150, 90, 1100, 52)
	rb := gen.Uniform(90, 170, 900, 54)
	for _, op := range []struct {
		name string
		a, b *tensor.CSR
	}{{"square", sq, sq}, {"rect", ra, rb}} {
		z, st := kernels.Gustavson(op.a, op.b)
		for _, grid := range []tiling.Mode{tiling.Dense, tiling.Compressed} {
			for _, workers := range []int{1, 3} {
				for _, f := range []tiling.Format{tiling.TUC, tiling.TCC} {
					name := fmt.Sprintf("%s/grid%d/workers%d/%v", op.name, grid, workers, f)
					cfg := WorkloadConfig{MicroTile: 8, Format: f, Grid: grid, Parallel: workers}
					w, err := NewWorkloadWith(name, op.a, op.b, cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkReference(t, name, w, z, st.MACCs, cfg)
					cfg.MicroTile = 5
					rw, err := w.Retile(cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkReference(t, name+"/retile5", rw, z, st.MACCs, cfg)
				}
			}
		}
	}
}

// checkReference compares w's reference counts with Gustavson's product z
// tiled under cfg.
func checkReference(t *testing.T, name string, w *Workload, z *tensor.CSR, maccs int64, cfg WorkloadConfig) {
	t.Helper()
	if w.MACCs != maccs {
		t.Fatalf("%s: MACCs %d, Gustavson %d", name, w.MACCs, maccs)
	}
	want := tiling.NewSummaryGrid(z, cfg.MicroTile, cfg.MicroTile, cfg.Format, cfg.Grid)
	if reflect.TypeOf(w.GZ) != reflect.TypeOf(want) {
		t.Fatalf("%s: GZ is a %T, NewSummaryGrid builds a %T", name, w.GZ, want)
	}
	if err := sameAnswers(w.GZ, want); err != nil {
		t.Fatalf("%s: GZ: %v", name, err)
	}
}
