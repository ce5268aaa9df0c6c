// Package cpuref models the paper's CPU baselines: the Intel MKL SpMSpM
// runs of Study 1 (Sec. 5.2.1's Xeon E5-2687W: 12 cores at 3 GHz, 30 MB
// LLC, 68.25 GB/s) and the TACO-compiled Gram kernel of Fig. 9. Both are
// analytic roofline models over exact kernel statistics: traffic comes
// from a stream/reuse analysis with an LLC hit model, and time is the
// maximum of the memory and compute rooflines.
//
// The absolute speedups of the paper depend on MKL's internals; this model
// targets the paper's regime — SpMSpM on the CPU is memory-bound, so
// accelerator speedups track arithmetic-intensity ratios.
package cpuref

import (
	"drt/internal/accel"
	"drt/internal/tensor"
)

// CPU describes the baseline machine.
type CPU struct {
	FreqHz        float64
	Cores         int
	MACCsPerCycle float64 // per core, sustained on irregular sparse code
	LLCBytes      int64
	Bandwidth     float64 // bytes/second
}

// DefaultCPU is the evaluation machine of Sec. 5.2.1.
func DefaultCPU() CPU {
	return CPU{
		FreqHz:        3e9,
		Cores:         12,
		MACCsPerCycle: 0.5, // sparse gather/scatter limited
		LLCBytes:      30 << 20,
		Bandwidth:     68.25e9,
	}
}

// Result is a CPU execution estimate.
type Result struct {
	TrafficBytes int64
	MACCs        int64
	Seconds      float64
}

// AI returns the run's arithmetic intensity.
func (r Result) AI() float64 {
	if r.TrafficBytes == 0 {
		return 0
	}
	return float64(r.MACCs) / float64(r.TrafficBytes)
}

// hitFraction is the LLC reuse model: a working set no larger than the
// cache streams from memory once; beyond that, reuse decays with the
// ratio of cache to working set.
func hitFraction(llc, workingSet int64) float64 {
	if workingSet <= 0 || workingSet <= llc {
		return 1
	}
	return float64(llc) / float64(workingSet)
}

// SpMSpM estimates an MKL-style row-wise (Gustavson) multiplication. A is
// streamed once; B rows are fetched per referencing A element with LLC
// reuse; Z is written once. It reads only the workload summary, so a
// deferred workload answers it without being built.
func SpMSpM(w *accel.Workload, cpu CPU) Result {
	s := w.Summary()
	hit := hitFraction(cpu.LLCBytes, s.BFootprint)
	trafficB := s.BFootprint
	if extra := s.StreamedB - s.BFootprint; extra > 0 {
		trafficB += int64(float64(extra) * (1 - hit))
	}
	traffic := s.AFootprint + trafficB + s.ZFootprint
	return rooflineResult(traffic, s.MACCs, cpu)
}

// rooflineResult converts traffic and work into time under the roofline.
func rooflineResult(traffic, maccs int64, cpu CPU) Result {
	memSec := float64(traffic) / cpu.Bandwidth
	compSec := float64(maccs) / (float64(cpu.Cores) * cpu.MACCsPerCycle * cpu.FreqHz)
	sec := memSec
	if compSec > sec {
		sec = compSec
	}
	return Result{TrafficBytes: traffic, MACCs: maccs, Seconds: sec}
}

// TACOGram estimates the TACO-compiled Gram kernel G_il = Σ_jk χ_ijk·χ_ljk
// with a concordant CSF traversal: the outer loop fixes slice i and the
// inner loop re-streams every slice l ≥ i of χ, with LLC reuse on χ.
func TACOGram(x *tensor.CSF3, maccs int64, cpu CPU) Result {
	fx := x.Footprint()
	slices := int64(len(x.RootCoords))
	// Each of the `slices` outer iterations streams about half the tensor
	// (symmetry lets TACO's generated code iterate l ≥ i).
	stream := slices * fx / 2
	hit := hitFraction(cpu.LLCBytes, fx)
	traffic := fx
	if extra := stream - fx; extra > 0 {
		traffic += int64(float64(extra) * (1 - hit))
	}
	// The I×I output is written once.
	out := tensor.FootprintCSR(x.I, int(min(int64(x.I)*int64(x.I), maccs)))
	return rooflineResult(traffic+out, maccs, cpu)
}
