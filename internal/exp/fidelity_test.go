package exp

import (
	"testing"

	"drt/internal/accel"
	"drt/internal/accel/extensor"
	"drt/internal/metrics"
	"drt/internal/workloads"
)

// These tests encode the paper's qualitative claims — the "shape" of each
// figure — on scaled workloads, so a regression that silently flips a
// result is caught even though absolute numbers are not the paper's.

// fidelityContext is a middle-ground scale: large enough that tiling
// regimes are realistic, small enough for CI.
func fidelityContext() *Context {
	return NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 6})
}

func TestFig1Shape(t *testing.T) {
	// Fig. 1: total traffic ordering OuterSPACE > MatRaptor > ExTensor >
	// ExTensor-OP-DRT, with OuterSPACE dominated by Z and MatRaptor by B,
	// and DRT within ~2x of the lower bound.
	c := fidelityContext()
	var osT, mrT, exT, drtT, lower metrics.Traffic
	exOpt := c.extensorOptions()
	for _, e := range c.fig6Entries() {
		w, err := c.Square(e)
		if err != nil {
			t.Fatal(err)
		}
		r, err := accel.OuterSPACE.Run(accel.Untiled, w, exOpt.Machine, exOpt.Partition, nil)
		if err != nil {
			t.Fatal(err)
		}
		osT.Add(r.Traffic)
		r, err = accel.MatRaptor.Run(accel.Untiled, w, exOpt.Machine, exOpt.Partition, nil)
		if err != nil {
			t.Fatal(err)
		}
		mrT.Add(r.Traffic)
		r, err = extensor.Run(extensor.Original, w, exOpt)
		if err != nil {
			t.Fatal(err)
		}
		exT.Add(r.Traffic)
		r, err = extensor.Run(extensor.OPDRT, w, exOpt)
		if err != nil {
			t.Fatal(err)
		}
		drtT.Add(r.Traffic)
		fa, fb := w.InputFootprint()
		lower.Add(metrics.Traffic{A: fa, B: fb, Z: w.OutputFootprint()})
	}
	// The ordering among the three baselines is workload-dependent (even
	// the paper has OuterSPACE > ExTensor > MatRaptor); the robust claim
	// is that DRT beats every baseline by a clear margin.
	for name, total := range map[string]int64{
		"OuterSPACE": osT.Total(), "MatRaptor": mrT.Total(), "ExTensor": exT.Total(),
	} {
		if total < 2*drtT.Total() {
			t.Fatalf("fig1: %s traffic %d not ≥ 2x DRT %d", name, total, drtT.Total())
		}
	}
	if osT.Z <= osT.A+osT.B {
		t.Fatal("OuterSPACE must be Z-dominated")
	}
	// MatRaptor's poor B reuse: B traffic dwarfs the once-read A. (The
	// once-written Z can rival B on low-degree scaled graphs, so the
	// robust input-side claim is B ≫ A.)
	if mrT.B <= 4*mrT.A {
		t.Fatalf("MatRaptor B traffic %d not ≫ A %d", mrT.B, mrT.A)
	}
	if ratio := float64(drtT.Total()) / float64(lower.Total()); ratio > 2 {
		t.Fatalf("DRT aggregate traffic %.2fx of lower bound, want ≤ 2x", ratio)
	}
}

func TestFig6Shape(t *testing.T) {
	// Fig. 6's headline: geomean speedup ordering OP-DRT > ExTensor-OP >
	// ExTensor, and DRT's actual geomean exceeding the others' DRAM-bound
	// geomeans.
	c := fidelityContext()
	m := c.Machine()
	variants := []extensor.Variant{extensor.Original, extensor.OP, extensor.OPDRT}
	actual := map[extensor.Variant][]float64{}
	bound := map[extensor.Variant][]float64{}
	for _, e := range c.fig6Entries() {
		row, err := c.fig6Row(e, variants)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			a, b := row.speedup(m, v)
			actual[v] = append(actual[v], a)
			bound[v] = append(bound[v], b)
		}
	}
	gEx := metrics.Geomean(actual[extensor.Original])
	gOP := metrics.Geomean(actual[extensor.OP])
	gDRT := metrics.Geomean(actual[extensor.OPDRT])
	if !(gDRT > gOP && gOP > gEx) {
		t.Fatalf("fig6 geomean ordering broken: ExTensor %.2f, OP %.2f, DRT %.2f", gEx, gOP, gDRT)
	}
	if gDRT <= metrics.Geomean(bound[extensor.OP]) {
		t.Fatalf("DRT actual %.2f should exceed ExTensor-OP's DRAM-bound %.2f",
			gDRT, metrics.Geomean(bound[extensor.OP]))
	}
	if gDRT <= metrics.Geomean(bound[extensor.Original]) {
		t.Fatalf("DRT actual %.2f should exceed ExTensor's DRAM-bound %.2f",
			gDRT, metrics.Geomean(bound[extensor.Original]))
	}
}

func TestFig10Shape(t *testing.T) {
	// Fig. 10: DRT ≥ SUC in geomean speedup over each untiled baseline,
	// and both tiled variants win overall.
	c := fidelityContext()
	m := c.Machine()
	p := c.extensorOptions().Partition
	var osSUC, osDRT, mrSUC, mrDRT []float64
	for _, e := range c.fig6Entries() {
		w, err := c.Square(e)
		if err != nil {
			t.Fatal(err)
		}
		base, _ := accel.OuterSPACE.Run(accel.Untiled, w, m, p, nil)
		suc, err := accel.OuterSPACE.Run(accel.SUC, w, m, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		drt, err := accel.OuterSPACE.Run(accel.DRT, w, m, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		osSUC = append(osSUC, base.Cycles()/suc.Cycles())
		osDRT = append(osDRT, base.Cycles()/drt.Cycles())
		mbase, _ := accel.MatRaptor.Run(accel.Untiled, w, m, p, nil)
		msuc, err := accel.MatRaptor.Run(accel.SUC, w, m, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		mdrt, err := accel.MatRaptor.Run(accel.DRT, w, m, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		mrSUC = append(mrSUC, mbase.Cycles()/msuc.Cycles())
		mrDRT = append(mrDRT, mbase.Cycles()/mdrt.Cycles())
	}
	if g := metrics.Geomean(osDRT); g <= metrics.Geomean(osSUC) || g <= 1 {
		t.Fatalf("OuterSPACE DRT geomean %.2f should beat SUC %.2f and 1x", g, metrics.Geomean(osSUC))
	}
	if g := metrics.Geomean(mrDRT); g <= metrics.Geomean(mrSUC) || g <= 1 {
		t.Fatalf("MatRaptor DRT geomean %.2f should beat SUC %.2f and 1x", g, metrics.Geomean(mrSUC))
	}
}

func TestFig8Shape(t *testing.T) {
	// Fig. 8: the DRT-over-ExTensor advantage grows with row-length
	// variation — unstructured graphs gain more than banded matrices.
	c := fidelityContext()
	m := c.Machine()
	opt := c.extensorOptions()
	gain := map[workloads.Pattern][]float64{}
	for _, e := range c.fig6Entries() {
		w, err := c.Square(e)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := extensor.Run(extensor.Original, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		drt, err := extensor.Run(extensor.OPDRT, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		gain[e.Pattern] = append(gain[e.Pattern], m.Seconds(ex.Cycles())/m.Seconds(drt.Cycles()))
	}
	band := metrics.Geomean(gain[workloads.Diamond])
	unst := metrics.Geomean(gain[workloads.Unstructured])
	if unst <= band {
		t.Fatalf("DRT gain on unstructured (%.2f) should exceed banded (%.2f)", unst, band)
	}
}
