package accel

import (
	"testing"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/sim"
)

// TestCompactEngineEquivalence pins the compact-index promise: forcing the
// int32 operand representation changes nothing observable — the reference
// product's output grid, MACC count, grid summaries and the full engine
// Result are all identical to the wide path.
func TestCompactEngineEquivalence(t *testing.T) {
	a := gen.RMAT(300, 5000, 0.57, 0.19, 0.19, 41)
	b := gen.RMAT(300, 5000, 0.45, 0.25, 0.20, 42)
	opt := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    6 << 10, CapB: 6 << 10, CapO: 6 << 10,
		LoopOrder: []int{DimJ, DimK, DimI},
		Strategy:  core.GreedyContractedFirst,
		Intersect: sim.Parallel,
		Extractor: extractor.ParallelExtractor,
		PELevel: &PELevelOptions{
			CapA: 1 << 10, CapB: 1 << 10, CapO: 1 << 10,
			Strategy: core.GreedyContractedFirst,
		},
	}
	for _, square := range []bool{false, true} {
		bb := b
		if square {
			bb = a
		}
		wide, err := NewWorkloadWith("eq", a, bb, WorkloadConfig{MicroTile: 8, Index: IndexWide})
		if err != nil {
			t.Fatal(err)
		}
		compact, err := NewWorkloadWith("eq", a, bb, WorkloadConfig{MicroTile: 8, Index: IndexCompact})
		if err != nil {
			t.Fatal(err)
		}
		if wide.Compacted() || !compact.Compacted() {
			t.Fatalf("square=%v: width selection wrong: wide=%v compact=%v", square, wide.Compacted(), compact.Compacted())
		}
		if err := sameAnswers(compact.GZ, wide.GZ); err != nil {
			t.Fatalf("square=%v: reference product grids differ between index widths: %v", square, err)
		}
		if wide.MACCs != compact.MACCs {
			t.Fatalf("square=%v: MACCs %d (wide) vs %d (compact)", square, wide.MACCs, compact.MACCs)
		}
		want, err := RunTasks(wide, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunTasks(compact, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("square=%v: engine results diverge:\n wide    %+v\n compact %+v", square, want, got)
		}

		// NewWorkloadOf32 on pre-compacted operands must land on the same
		// workload as compacting inside NewWorkloadWith.
		b32 := compact.A32
		if !square {
			b32 = compact.B32
		}
		of32, err := NewWorkloadOf32("eq", compact.A32, b32, WorkloadConfig{MicroTile: 8, Index: IndexCompact})
		if err != nil {
			t.Fatal(err)
		}
		got32, err := RunTasks(of32, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got32 != want {
			t.Fatalf("square=%v: NewWorkloadOf32 engine result diverges:\n wide %+v\n of32 %+v", square, want, got32)
		}
		// And the wide resolution of NewWorkloadOf32 (IndexWide forces the
		// widening path) must also agree.
		ofWide, err := NewWorkloadOf32("eq", compact.A32, b32, WorkloadConfig{MicroTile: 8, Index: IndexWide})
		if err != nil {
			t.Fatal(err)
		}
		if ofWide.Compacted() {
			t.Fatalf("square=%v: IndexWide did not widen", square)
		}
		gotW, err := RunTasks(ofWide, opt)
		if err != nil {
			t.Fatal(err)
		}
		if gotW != want {
			t.Fatalf("square=%v: widened NewWorkloadOf32 result diverges", square)
		}
	}
}
