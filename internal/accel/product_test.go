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

// TestReferencePassMatchesGustavson pins the structural reference: a
// workload's output grid GZ must be exactly the grid tiling.NewSummaryGrid
// builds over kernels.Gustavson's product, and its MACCs must equal
// Gustavson's. The generators' values never cancel, so the structural and
// numeric products coincide. It covers 1 and 3 workers (the pass is
// bit-identical across worker counts), square and rectangular operands,
// both micro-tile formats, and a Retile to another micro tile. The same
// checks at a block edge above 1 live in package tiling's tests, which
// can force one.
func TestReferencePassMatchesGustavson(t *testing.T) {
	sq := gen.RMAT(200, 2400, 0.57, 0.19, 0.19, 51)
	ra := gen.Uniform(150, 90, 1100, 52)
	rb := gen.Uniform(90, 170, 900, 54)
	for _, op := range []struct {
		name string
		a, b *tensor.CSR
	}{{"square", sq, sq}, {"rect", ra, rb}} {
		z, st := kernels.Gustavson(op.a, op.b)
		for _, workers := range []int{1, 3} {
			for _, f := range []tiling.Format{tiling.TUC, tiling.TCC} {
				name := fmt.Sprintf("%s/workers%d/%v", op.name, workers, f)
				cfg := WorkloadConfig{MicroTile: 8, Format: f, Parallel: workers}
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

// checkReference compares w's reference counts with Gustavson's product z
// tiled under cfg.
func checkReference(t *testing.T, name string, w *Workload, z *tensor.CSR, maccs int64, cfg WorkloadConfig) {
	t.Helper()
	if w.MACCs != maccs {
		t.Fatalf("%s: MACCs %d, Gustavson %d", name, w.MACCs, maccs)
	}
	if want := tiling.NewSummaryGrid(z, cfg.MicroTile, cfg.MicroTile, cfg.Format, tiling.Auto); !reflect.DeepEqual(w.GZ, want) {
		t.Fatalf("%s: GZ differs from the grid of Gustavson's product", name)
	}
}
