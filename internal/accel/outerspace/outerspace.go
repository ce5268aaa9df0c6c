// Package outerspace models the OuterSPACE accelerator (Pal et al., HPCA
// 2018) for the paper's Study 2 portability analysis (Sec. 5.2.2): the
// outer-product dataflow in three tiling variants — the original untiled
// design, an S-U-C-tiled variant, and a DRT-tiled variant. As in the
// paper, the on-chip implementation is idealized (runtime = DRAM-bound),
// so results expose exactly the traffic differences tiling makes.
package outerspace

import (
	"fmt"

	"drt/internal/accel"
	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/obs"
	"drt/internal/sim"
	"drt/internal/tensor"
)

// Variant selects the tiling discipline.
type Variant int

const (
	// Untiled is the original OuterSPACE proposal: columns of A and rows
	// of B are distributed, giving the inputs perfect reuse and the
	// output poor reuse (every partial product round-trips DRAM).
	Untiled Variant = iota
	// SUC applies a single level of static uniform coordinate tiling.
	SUC
	// DRT applies a single level of dynamic reflexive tiling.
	DRT
)

// String returns the variant name used in Fig. 10.
func (v Variant) String() string {
	switch v {
	case Untiled:
		return "OuterSPACE"
	case SUC:
		return "OuterSPACE-SUC"
	case DRT:
		return "OuterSPACE-DRT"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Options configures the model.
type Options struct {
	Machine   sim.Machine
	Partition sim.Partition
	// Rec, when non-nil, receives the run's instrumentation (see
	// accel.EngineOptions.Rec).
	Rec obs.Recorder
}

// DefaultOptions matches the normalized machine of Sec. 5.2.
func DefaultOptions() Options {
	return Options{Machine: sim.DefaultMachine(), Partition: sim.DefaultPartition()}
}

// engineOptions maps a tiled variant onto the task-stream engine's
// configuration.
func engineOptions(v Variant, w *accel.Workload, opt Options) accel.EngineOptions {
	capA, capB, capO := opt.Partition.Split(opt.Machine.GlobalBuffer)
	eo := accel.EngineOptions{
		Machine: opt.Machine,
		CapA:    capA, CapB: capB, CapO: capO,
		// Outer product: the contracted dimension is outermost and
		// both inputs are co-tiled along it.
		LoopOrder: []int{accel.DimK, accel.DimI, accel.DimJ},
		Intersect: sim.SerialOptimal, // idealized on-chip behavior
		Extractor: extractor.IdealExtractor,
		Strategy:  core.Static,
		Rec:       opt.Rec,
	}
	if v == DRT {
		eo.Strategy = core.GreedyContractedFirst
	} else {
		eo.InitialSize = staticShape(w, capA, capB)
	}
	return eo
}

// Run returns the DRAM-traffic-driven result for one workload.
func Run(v Variant, w *accel.Workload, opt Options) (sim.Result, error) {
	switch v {
	case Untiled:
		return untiled(w, opt), nil
	case SUC, DRT:
		return accel.RunTasks(w, engineOptions(v, w, opt))
	}
	return sim.Result{}, fmt.Errorf("outerspace: unknown variant %d", v)
}

// untiled charges the original design's traffic in closed form: each
// input read once; the multiply phase writes every partial product to DRAM
// and the merge phase reads them all back before writing the final output.
// It reads only the workload summary.
func untiled(w *accel.Workload, opt Options) sim.Result {
	s := w.Summary()
	partials := s.MACCs * accel.PartialBytes
	res := sim.Result{Name: w.Name, MACCs: s.MACCs}
	res.Traffic.A = s.AFootprint
	res.Traffic.B = s.BFootprint
	res.Traffic.Z = 2*partials + s.ZFootprint
	res.DRAMCycles = opt.Machine.DRAMCycles(res.Traffic.Total())
	res.ComputeCycles = float64(s.MACCs) / float64(opt.Machine.PEs)
	res.RecordTo(opt.Rec)
	return res
}

// staticShape picks a dense-safe S-U-C shape (grid units) analogous to the
// ExTensor sweep's balanced candidate.
func staticShape(w *accel.Workload, capA, capB int64) []int {
	mt := w.MicroTile
	denseTile := float64(mt*mt) * (tensor.MetaBytes + tensor.ValueBytes)
	side := 1
	if cells := float64(capB) / denseTile; cells >= 1 {
		for (side+1)*(side+1) <= int(cells) {
			side++
		}
	}
	si := int(float64(capA) / denseTile / float64(side))
	if si < 1 {
		si = 1
	}
	return []int{si, side, side} // I, J, K
}
