package accel

import (
	"testing"

	"drt/internal/gen"
	"drt/internal/tiling"
)

func TestNewWorkloadValidation(t *testing.T) {
	a := gen.Uniform(10, 20, 30, 1)
	b := gen.Uniform(30, 10, 30, 2)
	if _, err := NewWorkload("bad", a, b, 8); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	sq := gen.Uniform(20, 20, 40, 3)
	if _, err := NewWorkload("bad", sq, sq, 0); err == nil {
		t.Fatal("zero micro tile accepted")
	}
}

func TestWorkloadFootprints(t *testing.T) {
	a := gen.RMAT(128, 900, 0.57, 0.19, 0.19, 4)
	w, err := NewWorkload("w", a, a, 8)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := w.InputFootprint()
	if fa != w.GA.TotalFootprint() || fb != w.GB.TotalFootprint() {
		t.Fatal("input footprints disagree with grids")
	}
	if w.OutputFootprint() != w.GZ.TotalFootprint() {
		t.Fatal("output footprint disagrees with Z grid")
	}
	// The reference product must be consistent with the MACC count: a
	// workload with work has a non-empty product.
	if gr, gc := w.GZ.Extents(); w.MACCs > 0 && w.GZ.RegionNNZ(0, gr, 0, gc) == 0 {
		t.Fatal("MACCs without output")
	}
}

func TestWorkloadKernels(t *testing.T) {
	a := gen.Uniform(64, 64, 300, 5)
	w, err := NewWorkload("w", a, a, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := w.Kernel(1000, 2000)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(k.Operands) != 2 {
		t.Fatalf("input kernel has %d operands", len(k.Operands))
	}
	ko := w.KernelWithOutput(1000, 2000, 3000)
	if err := ko.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ko.Operands) != 3 || !ko.Operands[2].Output {
		t.Fatalf("output kernel wrong: %+v", ko.Operands)
	}
	// Extents must be consistent between A's columns and B's rows.
	_, gaC := w.GA.Extents()
	gbR, _ := w.GB.Extents()
	if k.Extent[DimK] != gaC || gaC != gbR {
		t.Fatal("K extent inconsistent between operands")
	}
}

func TestWorkloadFormats(t *testing.T) {
	a := gen.RMAT(256, 500, 0.57, 0.19, 0.19, 6) // hyper-sparse tiles
	tuc, err := NewWorkloadWithFormat("w", a, a, 16, tiling.TUC)
	if err != nil {
		t.Fatal(err)
	}
	tcc, err := NewWorkloadWithFormat("w", a, a, 16, tiling.TCC)
	if err != nil {
		t.Fatal(err)
	}
	if tcc.MACCs != tuc.MACCs {
		t.Fatal("format changed effectual work")
	}
	fa1, _ := tuc.InputFootprint()
	fa2, _ := tcc.InputFootprint()
	if fa2 >= fa1 {
		t.Fatalf("T-CC footprint %d not below T-UC %d on hyper-sparse tiles", fa2, fa1)
	}
}
