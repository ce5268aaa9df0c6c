// Package matraptor models the MatRaptor accelerator (Srivastava et al.,
// MICRO 2020) for the paper's Study 2 (Sec. 5.2.2): the row-wise
// Gustavson dataflow in three variants — the original design (which tiles
// only along the row dimension: perfect reuse on A, poor reuse on B,
// partial reuse on Z), an S-U-C variant and a DRT variant. On-chip
// behavior is idealized as in the paper.
package matraptor

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
	// Untiled is the original MatRaptor: rows of A streamed once, rows of
	// B fetched per referencing A element (no B reuse), output rows
	// completed on chip and written once.
	Untiled Variant = iota
	// SUC adds a single level of static uniform coordinate tiling.
	SUC
	// DRT adds a single level of dynamic reflexive tiling.
	DRT
)

// String returns the variant name used in Fig. 10.
func (v Variant) String() string {
	switch v {
	case Untiled:
		return "MatRaptor"
	case SUC:
		return "MatRaptor-SUC"
	case DRT:
		return "MatRaptor-DRT"
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
		// Row-wise Gustavson with a B tile shared by the I-range of A
		// rows: B stationary within each (K, J) step.
		LoopOrder: []int{accel.DimJ, accel.DimK, accel.DimI},
		Intersect: sim.SerialOptimal,
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
	return sim.Result{}, fmt.Errorf("matraptor: unknown variant %d", v)
}

// untiled charges the original design's traffic in closed form, from
// the workload summary alone: every A element (i,k) streams row k of B
// (the summary's streamed-B volume), and output rows complete on chip and
// are written exactly once.
func untiled(w *accel.Workload, opt Options) sim.Result {
	s := w.Summary()
	res := sim.Result{Name: w.Name, MACCs: s.MACCs}
	res.Traffic.A = s.AFootprint
	res.Traffic.B = s.StreamedB
	res.Traffic.Z = s.ZFootprint
	res.DRAMCycles = opt.Machine.DRAMCycles(res.Traffic.Total())
	res.ComputeCycles = float64(s.MACCs) / float64(opt.Machine.PEs)
	res.RecordTo(opt.Rec)
	return res
}

// staticShape picks a dense-safe S-U-C shape (grid units).
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
	return []int{si, side, side}
}
