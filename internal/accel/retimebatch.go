package accel

import (
	"sync"

	"drt/internal/extractor"
	"drt/internal/obs"
	"drt/internal/sim"
)

// RetimeConfig is one machine/intersect/extractor pricing point for
// RetimeBatch: RetimeOptions without the recorder. Batched replay prices
// many points in a single pass over the schedule and emits no per-task
// spans; attach a recorder to a sequential Retime when one is needed.
type RetimeConfig struct {
	Machine   sim.Machine
	Intersect sim.IntersectKind
	Extractor extractor.Kind
}

// This file is the one place a tile schedule becomes cycles. Every run is
// priced here task by task: RunTasks hands each task over as soon as the
// engine has captured it, Retime replays a recorded trace under one
// configuration, and RetimeBatch replays it under K.
//
// Pricing shares work across configurations wherever the arithmetic
// allows it without changing a single float operation:
//
//   - The per-task compute replay (sim.ComputeCycles per work item, the
//     round-robin PEArray, the NoC byte ledger) depends only on the
//     intersection kind and the PE count, so configurations sharing that
//     pair share one compute lane — Fig. 12's 12 (bandwidth, unit) points
//     collapse to 3 lanes.
//   - The extraction replay (Aggregate tile sums, extractor cost scalars)
//     depends only on the extractor kind, so it collapses to one lane per
//     kind.
//   - Only the task pipeline (whose fetch stage prices DRAM latency and
//     bandwidth) is inherently per-configuration.
//
// Each lane accumulates in task order exactly as a one-configuration
// replay does, so batched results stay bit-identical to sequential
// replay (pinned by TestRetimeBatchMatchesSequential).

// computeLane is the shared compute replay for one (intersect kind, PE
// count) group: the PE array, the NoC ledger, and the current task's
// compute duration.
type computeLane struct {
	kind sim.IntersectKind
	pes  int // raw Machine.PEs: the per-task mean divides by it unclamped
	pe   *sim.PEArray
	noc  int64
	task float64
}

// extractLane is the shared extraction replay for one extractor kind.
type extractLane struct {
	kind  extractor.Kind
	total float64
	task  float64
}

// configLane is one configuration's private state: its machine, its task
// pipeline and the indices of the shared lanes it prices from.
type configLane struct {
	comp, ext int
	m         sim.Machine
	pipe      sim.Pipeline
}

// retimeScratch is the pooled pricing state: the lane sets, the recorder
// of a one-configuration replay, and the direct run's capture buffer. The
// slices, PE arrays and capture arrays grow to the largest shape seen and
// are reused, so steady-state pricing is allocation-free.
type retimeScratch struct {
	comp  []computeLane
	ext   []extractLane
	lanes []configLane
	rec   obs.Recorder
	// capture holds the task RunTasks is pricing; its per-task arrays are
	// truncated after every task.
	capture Trace
	// ceiling, when non-nil, bounds a one-configuration direct run whose
	// A+B bytes are known to be at least floor (see RunTasksBelow).
	ceiling *Ceiling
	floor   int64
}

var retimePool = sync.Pool{New: func() any { return &retimeScratch{} }}

// plan maps each configuration onto its shared compute/extract lanes,
// reusing the scratch's slices and PE arrays. rec, when non-nil, receives
// the per-task pricing observations; only one-configuration replays pass
// one.
func (sc *retimeScratch) plan(configs []RetimeConfig, rec obs.Recorder) {
	sc.rec = rec
	sc.ceiling, sc.floor = nil, 0
	sc.comp = sc.comp[:0]
	sc.ext = sc.ext[:0]
	if cap(sc.lanes) < len(configs) {
		sc.lanes = make([]configLane, len(configs))
	} else {
		sc.lanes = sc.lanes[:len(configs)]
	}
	for i, cfg := range configs {
		ci := -1
		for j := range sc.comp {
			if sc.comp[j].kind == cfg.Intersect && sc.comp[j].pes == cfg.Machine.PEs {
				ci = j
				break
			}
		}
		if ci < 0 {
			ci = len(sc.comp)
			if ci < cap(sc.comp) {
				// Reuse the retired lane's PE array in place.
				sc.comp = sc.comp[:ci+1]
				pe := sc.comp[ci].pe
				if pe == nil {
					pe = sim.NewPEArray(cfg.Machine.PEs)
				} else {
					pe.Reset(cfg.Machine.PEs)
				}
				sc.comp[ci] = computeLane{kind: cfg.Intersect, pes: cfg.Machine.PEs, pe: pe}
			} else {
				sc.comp = append(sc.comp, computeLane{
					kind: cfg.Intersect, pes: cfg.Machine.PEs,
					pe: sim.NewPEArray(cfg.Machine.PEs),
				})
			}
		}
		ei := -1
		for j := range sc.ext {
			if sc.ext[j].kind == cfg.Extractor {
				ei = j
				break
			}
		}
		if ei < 0 {
			ei = len(sc.ext)
			sc.ext = append(sc.ext, extractLane{kind: cfg.Extractor})
		}
		sc.lanes[i] = configLane{comp: ci, ext: ei, m: cfg.Machine}
		sc.lanes[i].pipe.Rec = rec
	}
}

// price runs one recorded task of t through every planned lane: the
// extraction cost (outer task plus, when hierarchical, the PE level's
// Aggregate passes), the compute of its work items on the PE array, the
// NoC distribution ledger, and one extract → fetch → compute pipeline
// step per configuration.
func (sc *retimeScratch) price(t *Trace, task *traceTask) {
	rec := sc.rec
	for ei := range sc.ext {
		el := &sc.ext[ei]
		if t.hierarchical {
			var innerExtract float64
			if el.kind == extractor.ParallelExtractor {
				for _, n := range t.exts[task.extsLo:task.extsHi] {
					innerExtract += float64(n) / extractor.Width
				}
			}
			el.total += innerExtract
		}
		cost := extractor.CostScalars(el.kind, task.scanTiles, task.probes, task.rebuiltTiles)
		cost.Record(rec)
		el.task = cost.Total()
		el.total += el.task
	}
	for ci := range sc.comp {
		cl := &sc.comp[ci]
		var sum float64
		if t.hierarchical {
			for _, s := range t.subs[task.subsLo:task.subsHi] {
				cycles := sim.ComputeCycles(cl.kind, s.scanned, s.maccs)
				cl.pe.Assign(cycles)
				sum += cycles
				if rec != nil {
					rec.Observe("pe.subtask_cycles", cycles)
				}
			}
			for _, d := range t.dists[task.distsLo:task.distsHi] {
				if d.multicast {
					cl.noc += d.footprint / int64(cl.pes)
				} else {
					cl.noc += d.footprint
				}
			}
		} else {
			for _, r := range t.rows[task.rowsLo:task.rowsHi] {
				cycles := sim.ComputeCycles(cl.kind, r.scanned, r.maccs)
				cl.pe.Assign(cycles)
				sum += cycles
			}
		}
		cl.task = sum / float64(cl.pes)
		if rec != nil {
			rec.Observe("task.compute_cycles", cl.task)
		}
	}
	for li := range sc.lanes {
		ln := &sc.lanes[li]
		fetch := 0.0
		if task.bytes > 0 {
			fetch = ln.m.DRAMLatency + ln.m.DRAMCycles(task.bytes)
		}
		ln.pipe.Push(sc.ext[ln.ext].task, fetch, sc.comp[ln.comp].task)
	}
}

// above reports whether configuration 0's cycles, as priced so far with
// z output bytes charged or owed and at least floor A+B bytes to load,
// are already strictly above the ceiling. Each term is a non-decreasing
// lower bound of the matching Result.Cycles() term.
func (sc *retimeScratch) above(t *Trace, z int64) bool {
	if sc.ceiling == nil {
		return false
	}
	ln := &sc.lanes[0]
	c := ln.m.DRAMCycles(max(t.traffic.A+t.traffic.B, sc.floor) + z)
	if v := sc.comp[ln.comp].pe.MaxBusy(); v > c {
		c = v
	}
	if v := sc.ext[ln.ext].total; v > c {
		c = v
	}
	return c > sc.ceiling.Load()
}

// replay prices every recorded task of t.
func (sc *retimeScratch) replay(t *Trace) {
	for ti := range t.taskRecs {
		sc.price(t, &t.taskRecs[ti])
	}
}

// result assembles configuration li's Result from t's ledgers and the
// lanes' totals once every task has been priced.
func (sc *retimeScratch) result(t *Trace, li int) sim.Result {
	ln := &sc.lanes[li]
	cl := &sc.comp[ln.comp]
	res := sim.Result{
		Name:         t.Name,
		Traffic:      t.traffic,
		MACCs:        t.maccs,
		IntersectOps: t.intersectOps,
		Tasks:        t.tasks,
		EmptyTasks:   t.emptyTasks,
		Overflows:    t.overflows,
	}
	res.DRAMCycles = ln.m.DRAMCycles(res.Traffic.Total())
	res.ComputeCycles = cl.pe.MaxBusy()
	res.ExtractCycles = sc.ext[ln.ext].total
	// The event-driven schedule covers input fetches; output drain shares
	// the memory channel, so the makespan is additionally bounded by the
	// full DRAM phase.
	res.PipelineCyclesExact = ln.pipe.Makespan()
	if res.DRAMCycles > res.PipelineCyclesExact {
		res.PipelineCyclesExact = res.DRAMCycles
	}
	res.BufferAccessBytes = t.inputTraffic + res.Traffic.Z + res.MACCs*PartialBytes
	if t.hierarchical {
		res.NoCBytes = cl.noc
	} else {
		res.NoCBytes = t.inputTraffic
	}
	return res
}

// RetimeBatch prices the recorded schedule under every configuration in
// one streaming pass over the task/row/sub records, returning results in
// configuration order. Each result is bit-for-bit identical to
// Retime(RetimeOptions{Machine, Intersect, Extractor}) of the same
// configuration: the shared lanes replay the exact accumulation order of
// sequential replay, they just replay it once per distinct lane instead
// of once per configuration.
func (t *Trace) RetimeBatch(configs []RetimeConfig) []sim.Result {
	out := make([]sim.Result, len(configs))
	if len(configs) == 0 {
		return out
	}
	sc := retimePool.Get().(*retimeScratch)
	sc.plan(configs, nil)
	sc.replay(t)
	for li := range configs {
		out[li] = sc.result(t, li)
	}
	retimePool.Put(sc)
	return out
}
