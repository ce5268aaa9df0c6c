// Package sim provides the shared accelerator-modeling substrate: machine
// configurations (clock, DRAM bandwidth, buffer sizes, PE counts),
// intersection-unit cycle models, PE load-balance accounting, and the
// phase-overlap runtime composition the paper's pipelined designs rely on
// (Sec. 4.2.3: tile building, distribution and compute overlap, so steady
// state runtime is the maximum of the phase totals).
package sim

import (
	"fmt"

	"drt/internal/metrics"
	"drt/internal/obs"
)

// Machine describes the accelerator and memory system, normalized to the
// paper's CPU-matched configuration (Sec. 5.2.1).
type Machine struct {
	FreqHz        float64 // on-chip clock (1 GHz)
	DRAMBandwidth float64 // bytes/second (matches the CPU's 68.25 GB/s)
	DRAMLatency   float64 // per-request access latency in cycles
	PEs           int     // processing elements (128)
	GlobalBuffer  int64   // LLB bytes (30 MB)
	PEBuffer      int64   // local buffer bytes per PE (32 KB)
	NoCBandwidth  float64 // on-chip bytes/second (Sec. 6.6: not a bottleneck)
}

// DefaultMachine is the normalized accelerator configuration of Sec. 5.2.1.
func DefaultMachine() Machine {
	return Machine{
		FreqHz:        1e9,
		DRAMBandwidth: 68.25e9,
		DRAMLatency:   60,
		PEs:           128,
		GlobalBuffer:  30 << 20,
		PEBuffer:      32 << 10,
		NoCBandwidth:  1024e9,
	}
}

// DRAMCycles converts a byte count into clock cycles at the machine's
// memory bandwidth.
func (m Machine) DRAMCycles(bytes int64) float64 {
	return float64(bytes) / m.DRAMBandwidth * m.FreqHz
}

// Seconds converts cycles to wall-clock time.
func (m Machine) Seconds(cycles float64) float64 { return cycles / m.FreqHz }

// Partition splits a buffer across the A, B and output tensors by the
// given fractions (Sec. 5.2.4's static split, e.g. 5%/45%/50%).
type Partition struct {
	AFrac, BFrac, OFrac float64
}

// DefaultPartition is the configuration-time split used for all workloads
// unless an experiment sweeps it: 10% A / 45% B / 45% output. This is
// deliberately not the 5%/45%/50% example Sec. 5.2.4 quotes — the model
// gives A a slightly larger share and the output correspondingly less,
// keeping the small-A/large-B shape Fig. 14 found best. The fractions sum
// to 1 (pinned by TestDefaultPartitionFractions).
func DefaultPartition() Partition { return Partition{AFrac: 0.10, BFrac: 0.45, OFrac: 0.45} }

// Split returns the byte capacities of each partition of a buffer. Each
// partition gets at least one byte, and for any buffer that can hold the
// three one-byte minima (buffer >= 3) the capacities never sum to more
// than the buffer: the per-partition floors and independent float
// truncation can overshoot on tiny buffers, and any excess is shaved from
// the largest partitions first. Buffers below 3 bytes are non-physical and
// degenerate to the 1/1/1 floor.
func (p Partition) Split(buffer int64) (capA, capB, capO int64) {
	caps := [3]int64{
		int64(float64(buffer) * p.AFrac),
		int64(float64(buffer) * p.BFrac),
		int64(float64(buffer) * p.OFrac),
	}
	total := int64(0)
	for i := range caps {
		if caps[i] < 1 {
			caps[i] = 1
		}
		total += caps[i]
	}
	for total > buffer {
		// Shave the overshoot from the largest partition still above its
		// floor (ties resolve to the first, keeping the result
		// deterministic); stop when every partition is at the floor.
		idx := -1
		for i := range caps {
			if caps[i] > 1 && (idx < 0 || caps[i] > caps[idx]) {
				idx = i
			}
		}
		if idx < 0 {
			break
		}
		cut := total - buffer
		if max := caps[idx] - 1; cut > max {
			cut = max
		}
		caps[idx] -= cut
		total -= cut
	}
	return caps[0], caps[1], caps[2]
}

// Validate rejects non-physical partitions.
func (p Partition) Validate() error {
	if p.AFrac < 0 || p.BFrac < 0 || p.OFrac < 0 || p.AFrac+p.BFrac+p.OFrac > 1.0001 {
		return fmt.Errorf("sim: partition fractions %.2f/%.2f/%.2f invalid", p.AFrac, p.BFrac, p.OFrac)
	}
	return nil
}

// IntersectKind selects the intersection-unit microarchitecture of the
// Fig. 12 bandwidth-scaling study.
type IntersectKind int

const (
	// SkipBased is ExTensor's serial skip-based unit: one coordinate
	// comparison per cycle; every streamed coordinate costs a cycle.
	SkipBased IntersectKind = iota
	// Parallel compares P coordinates per cycle (the paper's parallelized
	// variant with P = 32); MACC issue remains one per cycle.
	Parallel
	// SerialOptimal is the oracle unit: one MACC per cycle per PE
	// regardless of sparsity pattern.
	SerialOptimal
)

// String returns the unit's name as used in Fig. 12.
func (k IntersectKind) String() string {
	switch k {
	case SkipBased:
		return "Skip-Based"
	case Parallel:
		return "Parallel"
	case SerialOptimal:
		return "Serial-Optimal"
	}
	return fmt.Sprintf("IntersectKind(%d)", int(k))
}

// IntersectWidth is the P-wide comparator width of the Parallel unit.
const IntersectWidth = 32

// ComputeCycles converts one output row's work into PE cycles under the
// given intersection unit. scanned is the number of operand coordinates
// streamed through the unit (misses included), maccs the effectual
// multiplies.
func ComputeCycles(kind IntersectKind, scanned, maccs int64) float64 {
	switch kind {
	case SkipBased:
		// Each streamed coordinate occupies the serial comparator for a
		// cycle; matched coordinates issue their MACC in the same slot.
		return float64(scanned + maccs)
	case Parallel:
		cmp := float64(scanned+maccs) / IntersectWidth
		if m := float64(maccs); m > cmp {
			return m
		}
		return cmp
	case SerialOptimal:
		return float64(maccs)
	}
	panic("sim: unknown intersection kind")
}

// PEArray models round-robin task distribution across PEs (Sec. 6.2 "we
// use a round-robin distributor... can lead to poor load balancing"): work
// items are dealt to PEs in arrival order and the array's finish time is
// the maximum per-PE sum. Work items cost non-negative cycles, so the
// busiest PE only grows and is tracked as items arrive.
type PEArray struct {
	busy []float64
	next int
	max  float64
}

// NewPEArray returns an array of n idle PEs.
func NewPEArray(n int) *PEArray {
	if n < 1 {
		n = 1
	}
	return &PEArray{busy: make([]float64, n)}
}

// Reset re-idles the array at n PEs, reusing the busy slice when it is
// large enough. It lets replay paths pool PEArrays across runs instead of
// allocating one per pricing pass.
func (p *PEArray) Reset(n int) {
	if n < 1 {
		n = 1
	}
	if cap(p.busy) < n {
		p.busy = make([]float64, n)
	} else {
		p.busy = p.busy[:n]
		for i := range p.busy {
			p.busy[i] = 0
		}
	}
	p.next = 0
	p.max = 0
}

// Assign deals one work item of the given (non-negative) cycle cost to the
// next PE.
func (p *PEArray) Assign(cycles float64) {
	b := p.busy[p.next] + cycles
	p.busy[p.next] = b
	if b > p.max {
		p.max = b
	}
	if p.next++; p.next == len(p.busy) {
		p.next = 0
	}
}

// MaxBusy returns the busiest PE's total cycles so far — the array's
// finish time once every item is assigned.
func (p *PEArray) MaxBusy() float64 { return p.max }

// Result is the outcome of simulating one workload on one accelerator
// configuration.
type Result struct {
	Name    string
	Traffic metrics.Traffic
	MACCs   int64

	DRAMCycles    float64 // memory-phase total
	ComputeCycles float64 // PE-phase total (max PE)
	ExtractCycles float64 // tile-extraction phase total
	// PipelineCyclesExact is the event-driven makespan of the
	// extract→fetch→compute pipeline (Sec. 4.2.3's double-buffered
	// overlap modeled explicitly, with per-request DRAM latency and
	// mean per-task compute occupancy). The pipeline ablation reports
	// its gap from the phase-max model Cycles() uses.
	PipelineCyclesExact float64
	Tasks               int
	EmptyTasks          int
	Overflows           int

	// Energy action counts, consumed by internal/energy.
	BufferAccessBytes int64
	NoCBytes          int64
	IntersectOps      int64
}

// Cycles returns the modeled runtime: the phases are pipelined
// (Sec. 4.2.3), so steady-state runtime is the maximum phase total.
func (r Result) Cycles() float64 {
	c := r.DRAMCycles
	if r.ComputeCycles > c {
		c = r.ComputeCycles
	}
	if r.ExtractCycles > c {
		c = r.ExtractCycles
	}
	return c
}

// AI returns the workload's arithmetic intensity on this configuration.
func (r Result) AI() float64 {
	return metrics.ArithmeticIntensity(r.MACCs, r.Traffic.Total())
}

// DRAMBoundCycles returns the memory-roofline runtime — the red dots of
// Figs. 6–10: the best achievable given this configuration's traffic.
func (r Result) DRAMBoundCycles() float64 { return r.DRAMCycles }

// RecordTo publishes the result's phase totals as simulated-cycle phase
// spans (one track per phase, all anchored at cycle 0 — the phases overlap
// in the pipelined designs) and its ledgers as counters. rec may be nil.
func (r Result) RecordTo(rec obs.Recorder) {
	if rec == nil {
		return
	}
	rec.Span(obs.CatPhase, "dram", obs.TrackPhaseDRAM, 0, r.DRAMCycles)
	rec.Span(obs.CatPhase, "compute", obs.TrackPhaseCompute, 0, r.ComputeCycles)
	rec.Span(obs.CatPhase, "extract", obs.TrackPhaseExtract, 0, r.ExtractCycles)
	rec.Count("traffic.a_bytes", r.Traffic.A)
	rec.Count("traffic.b_bytes", r.Traffic.B)
	rec.Count("traffic.z_bytes", r.Traffic.Z)
	rec.Count("engine.maccs", r.MACCs)
	rec.Count("engine.tasks", int64(r.Tasks))
	rec.Count("engine.empty_tasks", int64(r.EmptyTasks))
	rec.Count("engine.overflows", int64(r.Overflows))
	rec.Count("engine.buffer_access_bytes", r.BufferAccessBytes)
	rec.Count("engine.noc_bytes", r.NoCBytes)
	rec.Count("engine.intersect_ops", r.IntersectOps)
}
