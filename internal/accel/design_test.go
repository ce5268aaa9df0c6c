package accel

import (
	"strings"
	"testing"

	"drt/internal/gen"
	"drt/internal/sim"
)

// The Study-2 tests (Fig. 10) run the OuterSPACE and MatRaptor presets on
// scaled R-MAT workloads.

func designWorkload(t *testing.T, seed int64) *Workload {
	t.Helper()
	a := gen.RMAT(512, 6000, 0.57, 0.19, 0.19, seed)
	b := gen.RMAT(512, 6000, 0.57, 0.19, 0.19, seed+1)
	w, err := NewWorkload("rmat512", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// designMachine scales the global buffer to the test-sized matrices.
func designMachine(buffer int64) sim.Machine {
	m := sim.DefaultMachine()
	m.GlobalBuffer = buffer
	return m
}

// outerSPACEBuffer is large enough that tiled variants get a few passes
// over the inputs, and small enough that tiling decisions are actually
// exercised: the Z-dominated regime Fig. 10 operates in.
const outerSPACEBuffer = 256 << 10

func TestUntiledZDominates(t *testing.T) {
	// The defining property of untiled outer product (Fig. 1's first
	// bar): output partial-product traffic dominates input traffic.
	w := designWorkload(t, 1)
	r, err := OuterSPACE.Run(Untiled, w, designMachine(outerSPACEBuffer), sim.DefaultPartition(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Traffic.Z <= r.Traffic.A+r.Traffic.B {
		t.Fatalf("untiled Z traffic %d should dominate inputs %d", r.Traffic.Z, r.Traffic.A+r.Traffic.B)
	}
	// Inputs are read exactly once.
	fa, fb := w.InputFootprint()
	if r.Traffic.A != fa || r.Traffic.B != fb {
		t.Fatalf("untiled input traffic %d/%d, want one pass %d/%d", r.Traffic.A, r.Traffic.B, fa, fb)
	}
}

func TestTilingImprovesTraffic(t *testing.T) {
	// Fig. 10 (top): S-U-C and DRT tiling both beat the untiled baseline,
	// and DRT beats S-U-C. Denser inputs put the workload in the
	// partial-product-dominated regime where the original OuterSPACE
	// proposal pays 2× the multiply-phase volume in Z traffic.
	a := gen.RMAT(512, 20000, 0.57, 0.19, 0.19, 3)
	b := gen.RMAT(512, 20000, 0.57, 0.19, 0.19, 4)
	w, err0 := NewWorkload("rmat512-dense", a, b, 8)
	if err0 != nil {
		t.Fatal(err0)
	}
	m, p := designMachine(outerSPACEBuffer), sim.DefaultPartition()
	unt, err := OuterSPACE.Run(Untiled, w, m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	suc, err := OuterSPACE.Run(SUC, w, m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	drt, err := OuterSPACE.Run(DRT, w, m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if suc.Traffic.Total() >= unt.Traffic.Total() {
		t.Fatalf("SUC traffic %d not below untiled %d", suc.Traffic.Total(), unt.Traffic.Total())
	}
	if drt.Traffic.Total() >= suc.Traffic.Total() {
		t.Fatalf("DRT traffic %d not below SUC %d", drt.Traffic.Total(), suc.Traffic.Total())
	}
	if drt.MACCs != w.MACCs || suc.MACCs != w.MACCs {
		t.Fatal("tiled variants must cover the kernel exactly")
	}
}

func TestIdealizedRuntimeIsDRAMBound(t *testing.T) {
	w := designWorkload(t, 5)
	r, err := OuterSPACE.Run(DRT, w, designMachine(outerSPACEBuffer), sim.DefaultPartition(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.DRAMBoundCycles() > r.Cycles() {
		t.Fatal("DRAM-bound cycles cannot exceed total cycles")
	}
	if r.ExtractCycles != 0 {
		t.Fatal("idealized on-chip model must not charge extraction")
	}
}

// matRaptorBuffer is the MatRaptor tests' global buffer.
const matRaptorBuffer = 64 << 10

func TestUntiledBDominates(t *testing.T) {
	// Row-wise Gustavson without tiling re-fetches B rows per referencing
	// A element: B traffic dominates (Fig. 1's MatRaptor bar).
	w := designWorkload(t, 1)
	r, err := MatRaptor.Run(Untiled, w, designMachine(matRaptorBuffer), sim.DefaultPartition(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Traffic.B <= r.Traffic.A {
		t.Fatalf("untiled B traffic %d should dominate A %d", r.Traffic.B, r.Traffic.A)
	}
	// A read once, Z written once.
	fa, _ := w.InputFootprint()
	if r.Traffic.A != fa {
		t.Fatalf("A traffic %d, want one pass %d", r.Traffic.A, fa)
	}
	if r.Traffic.Z != w.OutputFootprint() {
		t.Fatalf("Z traffic %d, want one pass %d", r.Traffic.Z, w.OutputFootprint())
	}
}

func TestTilingImprovesBReuse(t *testing.T) {
	// Fig. 10 (bottom): tiling increases B's input reuse, reducing
	// overall DRAM traffic; DRT beats S-U-C.
	w := designWorkload(t, 3)
	m, p := designMachine(matRaptorBuffer), sim.DefaultPartition()
	unt, err := MatRaptor.Run(Untiled, w, m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	suc, err := MatRaptor.Run(SUC, w, m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	drt, err := MatRaptor.Run(DRT, w, m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if suc.Traffic.B >= unt.Traffic.B {
		t.Fatalf("SUC B traffic %d not below untiled %d", suc.Traffic.B, unt.Traffic.B)
	}
	if drt.Traffic.Total() >= suc.Traffic.Total() {
		t.Fatalf("DRT traffic %d not below SUC %d", drt.Traffic.Total(), suc.Traffic.Total())
	}
}

func TestVariantsShareMACCs(t *testing.T) {
	w := designWorkload(t, 5)
	m, p := designMachine(matRaptorBuffer), sim.DefaultPartition()
	for _, tl := range []Tiling{Untiled, SUC, DRT} {
		r, err := MatRaptor.Run(tl, w, m, p, nil)
		if err != nil {
			t.Fatalf("%v: %v", MatRaptor.Variant(tl), err)
		}
		if r.MACCs != w.MACCs {
			t.Fatalf("%v MACCs %d, want %d", MatRaptor.Variant(tl), r.MACCs, w.MACCs)
		}
	}
}

// TestDesignRejectsUnknownTiling pins that a design refuses a tiling it
// does not have, and that a Design value that is no preset refuses every
// tiling, each with an error.
func TestDesignRejectsUnknownTiling(t *testing.T) {
	w := designWorkload(t, 7)
	m, p := designMachine(matRaptorBuffer), sim.DefaultPartition()
	for _, d := range []Design{OuterSPACE, MatRaptor, SoftwareLLC} {
		if _, err := d.Run(Tiling(3), w, m, p, nil); err == nil {
			t.Errorf("%s ran tiling 3", d.Name)
		}
	}
	for _, tl := range []Tiling{Untiled, SUC, DRT} {
		if _, err := (Design{Name: "custom"}).Run(tl, w, m, p, nil); err == nil || !strings.Contains(err.Error(), "not a design preset") {
			t.Errorf("a zero design ran %v: %v", tl, err)
		}
	}
}
