package accel

import (
	"fmt"
	"math"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/metrics"
	"drt/internal/obs"
	"drt/internal/sim"
	"drt/internal/tensor"
)

// Tiling selects how a Design runs a workload: Untiled is the published
// design, priced in closed form from the workload summary; SUC and DRT
// apply one level of static uniform coordinate or dynamic reflexive
// tiling.
type Tiling int

const (
	Untiled Tiling = iota
	SUC
	DRT
)

// tilingSuffix names each tiling in a variant name, as Fig. 10 does.
var tilingSuffix = [...]string{Untiled: "", SUC: "-SUC", DRT: "-DRT"}

// Design is one accelerator of the paper's portability studies (Sec.
// 5.2.2, Sec. 5.2.3) as a preset of the task-stream engine: its dataflow,
// its DRT growth strategy, whether its output tiles constrain growth, and
// its untiled original's traffic in closed form. On-chip behavior is
// idealized as in the paper (a serial-optimal intersection unit and free
// extraction), so results expose exactly the traffic tiling changes.
// OuterSPACE, MatRaptor and SoftwareLLC are the only designs.
type Design struct {
	Name            string
	loopOrder       []int
	growth          core.Strategy
	constrainOutput bool
	untiled         func(s WorkloadSummary) metrics.Traffic
}

var (
	// OuterSPACE (Pal et al., HPCA 2018) is the outer-product dataflow:
	// the contracted K is outermost and both inputs are co-tiled along
	// it.
	OuterSPACE = Design{Name: "OuterSPACE", loopOrder: []int{DimK, DimI, DimJ},
		growth: core.GreedyContractedFirst, untiled: outerProductTraffic}
	// MatRaptor (Srivastava et al., MICRO 2020) is row-wise Gustavson with
	// a B tile shared by the I range of A rows: B stays stationary within
	// each (K, J) step. Untiled, it tiles only the rows.
	MatRaptor = Design{Name: "MatRaptor", loopOrder: []int{DimJ, DimK, DimI},
		growth: core.GreedyContractedFirst, untiled: rowWiseTraffic}
	// SoftwareLLC is Study 3's software DRT (Fig. 11), with a CPU's
	// last-level cache as the fast memory. Macro tiles run a true inner
	// product, K innermost, so each output region completes before the
	// loop moves on and both input tiles turn over as K advances: the
	// paper pairs this dataflow with alternating growth, whose square-ish
	// tiles balance the two inputs' pass counts. The output tile shares
	// the cache with the inputs, so it caps growth. Untiled, it is
	// row-wise SpMSpM.
	SoftwareLLC = Design{Name: "SW", loopOrder: []int{DimI, DimJ, DimK},
		growth: core.Alternating, constrainOutput: true, untiled: rowWiseTraffic}
)

// outerProductTraffic is untiled OuterSPACE: each input read once, but
// the multiply phase writes every partial product to DRAM and the merge
// phase reads them all back before writing the final output.
func outerProductTraffic(s WorkloadSummary) metrics.Traffic {
	return metrics.Traffic{A: s.AFootprint, B: s.BFootprint, Z: 2*s.MACCs*PartialBytes + s.ZFootprint}
}

// rowWiseTraffic is untiled row-wise SpMSpM: A streamed once, row k of B
// fetched for every A element (i, k) with no reuse (the summary's
// streamed-B volume), and output rows completed on chip and written once.
func rowWiseTraffic(s WorkloadSummary) metrics.Traffic {
	return metrics.Traffic{A: s.AFootprint, B: s.StreamedB, Z: s.ZFootprint}
}

// Variant names the design under one tiling: "OuterSPACE",
// "OuterSPACE-SUC", "OuterSPACE-DRT".
func (d Design) Variant(t Tiling) string {
	if t < 0 || int(t) >= len(tilingSuffix) {
		return fmt.Sprintf("%s-Tiling(%d)", d.Name, int(t))
	}
	return d.Name + tilingSuffix[t]
}

// Run simulates one workload on the design under tiling t, on machine m
// with its global buffer split by p. The untiled design reads only the
// workload summary. The S-U-C variant takes StaticShapes' balanced
// candidate. rec, when non-nil, receives the run's instrumentation (see
// EngineOptions.Rec).
func (d Design) Run(t Tiling, w *Workload, m sim.Machine, p sim.Partition, rec obs.Recorder) (sim.Result, error) {
	if d.untiled == nil {
		return sim.Result{}, fmt.Errorf("accel: %q is not a design preset", d.Name)
	}
	if t == Untiled {
		s := w.Summary()
		res := sim.Result{Name: w.Name, MACCs: s.MACCs, Traffic: d.untiled(s)}
		res.DRAMCycles = m.DRAMCycles(res.Traffic.Total())
		res.ComputeCycles = float64(s.MACCs) / float64(m.PEs)
		res.RecordTo(rec)
		return res, nil
	}
	capA, capB, capO := p.Split(m.GlobalBuffer)
	opt := EngineOptions{
		Machine: m,
		CapA:    capA, CapB: capB, CapO: capO,
		LoopOrder:       d.loopOrder,
		Intersect:       sim.SerialOptimal,
		Extractor:       extractor.IdealExtractor,
		ConstrainOutput: d.constrainOutput,
		Rec:             rec,
	}
	switch t {
	case SUC:
		shape := StaticShapes(w, capA, capB)[0]
		opt.Strategy = core.Static
		opt.InitialSize = shape[:]
	case DRT:
		opt.Strategy = d.growth
	default:
		return sim.Result{}, fmt.Errorf("accel: %s: unknown tiling %d", d.Name, int(t))
	}
	return RunTasks(w, opt)
}

// StaticShapes is the S-U-C shape rule: it proposes tile shapes [I, J, K]
// (in micro-tile grid units) sized so a dense tile fits the partitions,
// the constraint the paper identifies for explicitly managed buffers
// (Sec. 4.1). The first candidate is the balanced one, a square B tile;
// single-shape designs take it, and ExTensor's static-shape sweep also
// tries three aspect-ratio variants. B's K×J tile always fits capB. A's I
// extent is capA's share over the K extent, rounded down but at least 1,
// so an elongated shape's dense A tile can exceed capA; the engine then
// shrinks K under I→J→K and overflows under J→K→I, and the two loop
// orders visit different boxes.
func StaticShapes(w *Workload, capA, capB int64) [][3]int {
	mt := w.MicroTile
	denseTileBytes := float64(mt*mt) * (tensor.MetaBytes + tensor.ValueBytes)
	// Balanced square B tile: sk·sj grid cells with dense bytes ≤ capB.
	cells := float64(capB) / denseTileBytes
	side := int(math.Sqrt(cells))
	if side < 1 {
		side = 1
	}
	shape := func(sk, sj int) [3]int {
		if sk < 1 {
			sk = 1
		}
		if sj < 1 {
			sj = 1
		}
		// A (I×K) shares sk; its I extent comes from capA.
		si := int(float64(capA) / denseTileBytes / float64(sk))
		if si < 1 {
			si = 1
		}
		return [3]int{si, sj, sk}
	}
	return [][3]int{
		shape(side, side),
		shape(side*2, side/2),
		shape(side/2, side*2),
		shape(side*4, side/4),
	}
}
