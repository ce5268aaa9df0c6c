package cpuref

import (
	"testing"

	"drt/internal/accel"
	"drt/internal/gen"
	"drt/internal/kernels"
)

func TestSpMSpMRoofline(t *testing.T) {
	a := gen.RMAT(512, 6000, 0.57, 0.19, 0.19, 1)
	w, err := accel.NewWorkload("rmat", a, a, 8)
	if err != nil {
		t.Fatal(err)
	}
	cpu := DefaultCPU()
	r := SpMSpM(w, cpu)
	if r.Seconds <= 0 || r.TrafficBytes <= 0 {
		t.Fatalf("degenerate result %+v", r)
	}
	// Traffic is at least the one-pass footprints.
	fa, fb := w.InputFootprint()
	if r.TrafficBytes < fa+fb {
		t.Fatalf("traffic %d below one-pass inputs %d", r.TrafficBytes, fa+fb)
	}
	// A bigger LLC can only reduce traffic.
	bigger := cpu
	bigger.LLCBytes *= 16
	if r2 := SpMSpM(w, bigger); r2.TrafficBytes > r.TrafficBytes {
		t.Fatalf("larger LLC increased traffic: %d > %d", r2.TrafficBytes, r.TrafficBytes)
	}
}

func TestSmallWorkloadIsOnePass(t *testing.T) {
	// A workload far below the LLC size streams everything once.
	a := gen.Uniform(64, 64, 300, 2)
	w, err := accel.NewWorkload("tiny", a, a, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := SpMSpM(w, DefaultCPU())
	fa, fb := w.InputFootprint()
	want := fa + fb + w.OutputFootprint()
	if r.TrafficBytes != want {
		t.Fatalf("resident traffic %d, want one-pass %d", r.TrafficBytes, want)
	}
}

func TestHitFraction(t *testing.T) {
	if h := hitFraction(100, 50); h != 1 {
		t.Fatalf("resident hit = %g", h)
	}
	if h := hitFraction(100, 200); h != 0.5 {
		t.Fatalf("2x working set hit = %g", h)
	}
	if h := hitFraction(100, 0); h != 1 {
		t.Fatalf("empty working set hit = %g", h)
	}
}

func TestTACOGram(t *testing.T) {
	x := gen.Tensor3(64, 48, 48, 2000, 4)
	_, st := kernels.Gram(x)
	r := TACOGram(x, st.MACCs, DefaultCPU())
	if r.Seconds <= 0 || r.AI() <= 0 {
		t.Fatalf("degenerate taco result %+v", r)
	}
	// Denser tensor of the same shape → more work per byte (higher AI).
	x2 := gen.Tensor3(64, 48, 48, 20000, 5)
	_, st2 := kernels.Gram(x2)
	r2 := TACOGram(x2, st2.MACCs, DefaultCPU())
	if r2.AI() <= r.AI() {
		t.Fatalf("denser tensor should raise TACO AI: %g vs %g", r2.AI(), r.AI())
	}
}
