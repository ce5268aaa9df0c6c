// Package swdrt implements Study 3 (Sec. 5.2.3, Sec. 6.3): the software
// variant of DRT. The CPU's last-level cache plays the role of the fast
// memory, macro tiles are computed with an inner-product dataflow (perfect
// output reuse), and — as the paper chooses — the *alternating* DRT growth
// variant is used because inner product benefits from balanced input
// reuse. The study is an oracle, best-case memory-traffic analysis: it
// compares untiled, S-U-C-tiled and DRT-tiled SpMSpM traffic (Fig. 11).
package swdrt

import (
	"math"

	"drt/internal/accel"
	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/sim"
	"drt/internal/tensor"
)

// Options configures the software study.
type Options struct {
	// LLCBytes is the cache treated as the fast memory (30 MB on the
	// evaluation machine).
	LLCBytes  int64
	Partition sim.Partition
}

// DefaultOptions matches the evaluation machine.
func DefaultOptions() Options {
	return Options{LLCBytes: 30 << 20, Partition: sim.DefaultPartition()}
}

// Study holds the three variants' memory traffic for one workload.
type Study struct {
	UntiledBytes int64
	SUCBytes     int64
	DNCBytes     int64
}

// SUCImprovement returns untiled/S-U-C traffic (Fig. 11's SW SUC series).
func (s Study) SUCImprovement() float64 { return ratio(s.UntiledBytes, s.SUCBytes) }

// DNCImprovement returns untiled/DRT traffic (Fig. 11's SW DNC series).
func (s Study) DNCImprovement() float64 { return ratio(s.UntiledBytes, s.DNCBytes) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return math.Inf(1)
	}
	return float64(num) / float64(den)
}

// Run measures all three variants on one workload.
func Run(w *accel.Workload, opt Options) (Study, error) {
	var s Study
	// Untiled row-wise SpMSpM: A streamed once, B rows fetched per
	// referencing A element with no reuse, Z written once.
	sum := w.Summary()
	s.UntiledBytes = sum.AFootprint + sum.StreamedB + sum.ZFootprint

	capA, capB, capO := opt.Partition.Split(opt.LLCBytes)
	base := accel.EngineOptions{
		Machine: softwareMachine(opt.LLCBytes),
		CapA:    capA,
		CapB:    capB,
		CapO:    capO,
		// True inner product, I → J → K with the contracted rank
		// innermost: each output region completes before the loop moves
		// on ("inner-product has perfect reuse on the output"), and both
		// input tiles turn over as K advances — which is why the paper
		// pairs this dataflow with the alternating growth variant, whose
		// square-ish tiles balance the two inputs' pass counts.
		LoopOrder: []int{accel.DimI, accel.DimJ, accel.DimK},
		Intersect: sim.SerialOptimal,
		Extractor: extractor.IdealExtractor,
		// The output tile lives in the LLC alongside the inputs, so its
		// footprint participates in the growth capacity check.
		ConstrainOutput: true,
	}

	suc := base
	suc.Strategy = core.Static
	suc.InitialSize = staticShape(w, capA, capB)
	r, err := accel.RunTasks(w, suc)
	if err != nil {
		return s, err
	}
	s.SUCBytes = r.Traffic.Total()

	dnc := base
	dnc.Strategy = core.Alternating
	r, err = accel.RunTasks(w, dnc)
	if err != nil {
		return s, err
	}
	s.DNCBytes = r.Traffic.Total()
	return s, nil
}

// softwareMachine wraps the LLC size in a machine descriptor for the
// shared engine; bandwidth/PE settings are irrelevant to a traffic-only
// study but must be non-zero.
func softwareMachine(llc int64) sim.Machine {
	m := sim.DefaultMachine()
	m.GlobalBuffer = llc
	return m
}

// staticShape picks the dense-safe S-U-C shape in grid units.
func staticShape(w *accel.Workload, capA, capB int64) []int {
	mt := w.MicroTile
	denseTile := float64(mt*mt) * (tensor.MetaBytes + tensor.ValueBytes)
	side := int(math.Sqrt(float64(capB) / denseTile))
	if side < 1 {
		side = 1
	}
	si := int(float64(capA) / denseTile / float64(side))
	if si < 1 {
		si = 1
	}
	return []int{si, side, side}
}
