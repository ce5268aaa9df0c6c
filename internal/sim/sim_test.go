package sim

import "testing"

func TestDRAMCycles(t *testing.T) {
	m := DefaultMachine()
	// At 68.25 GB/s and 1 GHz, 68.25 bytes move per cycle.
	cycles := m.DRAMCycles(68250)
	if cycles < 999 || cycles > 1001 {
		t.Fatalf("DRAMCycles(68250) = %g, want ~1000", cycles)
	}
	if s := m.Seconds(1e9); s != 1 {
		t.Fatalf("Seconds(1e9) = %g, want 1", s)
	}
}

func TestPartitionSplit(t *testing.T) {
	p := Partition{AFrac: 0.1, BFrac: 0.45, OFrac: 0.45}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	a, b, o := p.Split(1000)
	if a != 100 || b != 450 || o != 450 {
		t.Fatalf("split = %d/%d/%d", a, b, o)
	}
	bad := Partition{AFrac: 0.9, BFrac: 0.9}
	if bad.Validate() == nil {
		t.Fatal("oversubscribed partition accepted")
	}
}

// TestDefaultPartitionFractions pins the implemented default split — the
// one the DefaultPartition doc comment documents — and that it is a valid
// partition whose fractions sum to at most 1.
func TestDefaultPartitionFractions(t *testing.T) {
	p := DefaultPartition()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.AFrac != 0.10 || p.BFrac != 0.45 || p.OFrac != 0.45 {
		t.Fatalf("default partition = %g/%g/%g, want 0.10/0.45/0.45", p.AFrac, p.BFrac, p.OFrac)
	}
	if sum := p.AFrac + p.BFrac + p.OFrac; sum > 1 {
		t.Fatalf("default fractions sum to %g > 1", sum)
	}
}

// TestPartitionSplitNeverOvercommits is the property test for the tiny-
// buffer clamp: for every valid partition and every buffer that can hold
// the three one-byte floors, the capacities must sum to at most the buffer
// while each stays at least 1. Before the clamp, per-partition floors plus
// independent float truncation could hand out more bytes than the buffer
// has (e.g. 0.05/0.45/0.50 of a 4-byte buffer floored to 1/1/2 = 4 but
// 0.05/0.05/0.05 floored to 1/1/1 = 3 of a 2-byte buffer).
func TestPartitionSplitNeverOvercommits(t *testing.T) {
	parts := []Partition{
		DefaultPartition(),
		{AFrac: 0.05, BFrac: 0.45, OFrac: 0.50},
		{AFrac: 0.05, BFrac: 0.05, OFrac: 0.05},
		{AFrac: 0.34, BFrac: 0.33, OFrac: 0.33},
		{AFrac: 0, BFrac: 0.5, OFrac: 0.5},
		{AFrac: 1, BFrac: 0, OFrac: 0},
	}
	for _, p := range parts {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for buffer := int64(3); buffer <= 4096; buffer++ {
			a, b, o := p.Split(buffer)
			if a < 1 || b < 1 || o < 1 {
				t.Fatalf("%+v Split(%d) = %d/%d/%d: partition below 1 byte", p, buffer, a, b, o)
			}
			if a+b+o > buffer {
				t.Fatalf("%+v Split(%d) = %d/%d/%d: sums to %d > buffer", p, buffer, a, b, o, a+b+o)
			}
		}
	}
	// Non-physical buffers below the 3-byte floor degenerate to 1/1/1.
	a, b, o := DefaultPartition().Split(1)
	if a != 1 || b != 1 || o != 1 {
		t.Fatalf("Split(1) = %d/%d/%d, want 1/1/1 floor", a, b, o)
	}
}

// TestPartitionSplitLargeBufferUnchanged checks the clamp does not alter
// the plain truncation path real machine configurations take.
func TestPartitionSplitLargeBufferUnchanged(t *testing.T) {
	p := DefaultPartition()
	a, b, o := p.Split(30 << 20)
	if a != int64(float64(30<<20)*0.10) || b != int64(float64(30<<20)*0.45) || o != int64(float64(30<<20)*0.45) {
		t.Fatalf("Split(30MB) = %d/%d/%d changed from plain truncation", a, b, o)
	}
}

func TestComputeCyclesOrdering(t *testing.T) {
	// For any sparse workload: skip-based ≥ parallel ≥ serial-optimal.
	cases := []struct{ scanned, maccs int64 }{
		{100, 10}, {1000, 1000}, {5, 0}, {0, 0}, {64, 2},
	}
	for _, c := range cases {
		skip := ComputeCycles(SkipBased, c.scanned, c.maccs)
		par := ComputeCycles(Parallel, c.scanned, c.maccs)
		opt := ComputeCycles(SerialOptimal, c.scanned, c.maccs)
		if skip < par || par < opt {
			t.Fatalf("ordering violated for %+v: skip=%g par=%g opt=%g", c, skip, par, opt)
		}
		if opt != float64(c.maccs) {
			t.Fatalf("serial-optimal = %g, want %d", opt, c.maccs)
		}
	}
}

func TestPEArrayRoundRobin(t *testing.T) {
	pe := NewPEArray(4)
	for i := 0; i < 8; i++ {
		pe.Assign(10)
	}
	if pe.MaxBusy() != 20 {
		t.Fatalf("balanced load: max %g, want 20", pe.MaxBusy())
	}
	// Skewed: one huge item lands on PE 0.
	pe2 := NewPEArray(4)
	pe2.Assign(100)
	pe2.Assign(1)
	if pe2.MaxBusy() != 100 {
		t.Fatalf("max busy %g, want 100", pe2.MaxBusy())
	}
}

func TestResultCyclesIsPhaseMax(t *testing.T) {
	r := Result{DRAMCycles: 100, ComputeCycles: 250, ExtractCycles: 30}
	if r.Cycles() != 250 {
		t.Fatalf("Cycles = %g, want 250 (compute-bound)", r.Cycles())
	}
	r.DRAMCycles = 400
	if r.Cycles() != 400 {
		t.Fatalf("Cycles = %g, want 400 (memory-bound)", r.Cycles())
	}
	if r.DRAMBoundCycles() != 400 {
		t.Fatal("DRAM-bound cycles must equal the memory phase")
	}
}
