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

// staticFloor returns the A+B bytes a static (core.Static) run of opt over
// the built workload w loads, read off the operand grids before the run
// starts. When every macro tile of the regular grid the shape cuts fits
// its partition, the tiler never shrinks a tile, so the run's non-empty
// tasks are exactly the macro cells (i, j, k) whose A tile (i, k) and B
// tile (k, j) both hold non-zeros, and an operand tile is loaded at the
// first non-empty task after each rebuild. A tile is therefore loaded
// once per non-empty partner tile along the dimension the operand lacks
// (J for A, I for B), or at most once when that dimension's loop sits
// inside the operand's stationarity depth, so its rebuilds skip it. The
// floor is then exactly the run's Traffic.A+Traffic.B; it is 0 when some
// tile does not fit, for a non-static strategy and when the output tile
// also constrains the tiler. One row-major pass over each grid's stored
// micro tiles (one in all when A and B share a grid) sums the macro tiles
// and their per-K footprints and counts.
func staticFloor(w *Workload, opt *EngineOptions) int64 {
	if opt.Strategy != core.Static || opt.ConstrainOutput || len(opt.LoopOrder) != 3 {
		return 0
	}
	var pos [3]int
	var seen [3]bool
	for p, d := range opt.LoopOrder {
		if d < 0 || d > 2 || seen[d] {
			return 0 // not a loop order: the enumerator reports it
		}
		seen[d], pos[d] = true, p
	}
	gi, gk := w.GA.Extents()
	_, gj := w.GB.Extents()
	ext := [3]int{dimI: gi, dimJ: gj, dimK: gk}
	var edge [3]int
	for d := range edge {
		edge[d] = 1
		if d < len(opt.InitialSize) && opt.InitialSize[d] > 0 {
			edge[d] = opt.InitialSize[d]
		}
		edge[d] = min(edge[d], ext[d])
		if edge[d] < 1 {
			return 0 // empty iteration space
		}
	}
	nk := (gk + edge[dimK] - 1) / edge[dimK]
	a := newMacroFold(edge[dimI], edge[dimK], nk, nk, false, opt.CapA)
	b := newMacroFold(edge[dimK], edge[dimJ], (gj+edge[dimJ]-1)/edge[dimJ], nk, true, opt.CapB)
	if w.GA == w.GB {
		w.GA.EachTile(func(r, c int, _, fp int64) {
			a.add(r, c, fp)
			b.add(r, c, fp)
		})
	} else {
		w.GA.EachTile(func(r, c int, _, fp int64) { a.add(r, c, fp) })
		w.GB.EachTile(func(r, c int, _, fp int64) { b.add(r, c, fp) })
	}
	if a.over || b.over {
		return 0
	}
	aOnce := pos[dimJ] > max(pos[dimI], pos[dimK])
	bOnce := pos[dimI] > max(pos[dimK], pos[dimJ])
	loads := func(partners int64, once bool) int64 {
		if once {
			return min(partners, 1)
		}
		return partners
	}
	var floor int64
	for k := range nk {
		floor += a.fp[k]*loads(b.tiles[k], aOnce) + b.fp[k]*loads(a.tiles[k], bOnce)
	}
	return floor
}

// macroFold sums one operand's stored micro tiles, visited in row-major
// order, into the macro tiles of a regular grid of rows×cols micro tiles.
// It holds the current macro row only, one entry per macro column, plus
// the footprint and the non-empty macro tile count per K macro index, K
// being the operand's rows (B) or columns (A).
type macroFold struct {
	rows, cols int
	kRows      bool
	capacity   int64
	row        []int   // per macro column: 1 + the macro row acc sums
	acc        []int64 // per macro column: footprint of that macro tile
	fp, tiles  []int64 // per K macro index
	over       bool    // some macro tile exceeds capacity
}

func newMacroFold(rows, cols, nCols, nK int, kRows bool, capacity int64) *macroFold {
	return &macroFold{rows: rows, cols: cols, kRows: kRows, capacity: capacity,
		row: make([]int, nCols), acc: make([]int64, nCols),
		fp: make([]int64, nK), tiles: make([]int64, nK)}
}

// add folds the stored micro tile (r, c) with footprint fp.
func (f *macroFold) add(r, c int, fp int64) {
	mr, mc := r/f.rows, c/f.cols
	k := mc
	if f.kRows {
		k = mr
	}
	if f.row[mc] != mr+1 {
		f.row[mc], f.acc[mc] = mr+1, 0
		f.tiles[k]++
	}
	f.acc[mc] += fp
	f.over = f.over || f.acc[mc] > f.capacity
	f.fp[k] += fp
}
