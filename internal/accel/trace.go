package accel

import (
	"drt/internal/extractor"
	"drt/internal/metrics"
	"drt/internal/obs"
	"drt/internal/sim"
)

// Trace is the machine-invariant half of one engine run: the ordered
// per-task record of what the tile schedule moved and computed — input
// bytes charged, extraction probe statistics, per-row (or per-PE-subtask)
// intersection work, and NoC distribution events — plus the run's
// invariant ledgers (traffic, MACCs, task counts). Everything that depends
// only on the workload and the tiling configuration (buffer capacities,
// loop order, growth strategy, initial sizes) lives here; everything that
// depends on the machine's speeds (DRAM bandwidth/latency, PE count,
// intersection unit, extractor implementation) is deliberately absent and
// re-derived by Retime.
//
// A trace recorded by RecordTasks is valid for any Machine and any
// IntersectKind/extractor.Kind, because none of those knobs feed back into
// Algorithm 1's tile shaping: capacities come from the buffer partition,
// and the intersection/extraction units only price the fixed schedule.
// Retiming a trace under a different partition, loop order, strategy,
// initial size or workload is invalid — callers key their caches on
// exactly those inputs.
type Trace struct {
	// Name is the recorded workload's name, copied into every retimed
	// Result.
	Name string

	traffic      metrics.Traffic
	maccs        int64
	intersectOps int64
	tasks        int
	emptyTasks   int
	overflows    int
	inputTraffic int64
	hierarchical bool

	taskRecs []traceTask
	// Flat per-item storage indexed by the tasks' [lo, hi) windows keeps
	// the trace a handful of allocations regardless of task count.
	rows  []rowCost   // non-hierarchical: one entry per output row with work
	subs  []rowCost   // hierarchical: one entry per non-empty PE sub-task
	exts  []int64     // hierarchical: Aggregate tile counts per fresh sub-tile
	dists []distEvent // hierarchical: NoC distribution events
}

// traceTask is one non-empty task's replayable record. Empty tasks carry
// no timing and are folded into the counters; a rebuild that happened
// during an empty task charges its bytes to the next non-empty task here,
// exactly as the engine's pending-load bookkeeping does.
type traceTask struct {
	bytes            int64 // input tile bytes charged (A + B)
	scanTiles        int64
	probes           int
	rebuiltTiles     int64
	rowsLo, rowsHi   int
	subsLo, subsHi   int
	extsLo, extsHi   int
	distsLo, distsHi int
}

// rowCost is one intersection-unit work item: the coordinates streamed
// through the unit and the effectual MACCs, the two arguments of
// sim.ComputeCycles.
type rowCost struct {
	scanned, maccs int64
}

// distEvent is one PE-level tile distribution: a fresh sub-tile rides the
// NoC in full, a multicast replay amortizes its footprint across the PE
// array (footprint / PEs, re-divided at retime so the PE count stays a
// free parameter).
type distEvent struct {
	footprint int64
	multicast bool
}

// NumTasks returns the number of non-empty tasks in the recorded schedule.
func (t *Trace) NumTasks() int { return len(t.taskRecs) }

// Bytes estimates the retained heap footprint of the recorded schedule:
// the flat per-task and per-item arrays that dominate a trace's size. Cache
// layers use it to enforce a retention budget.
func (t *Trace) Bytes() int64 {
	const (
		taskSize = int64(96) // unsafe.Sizeof(traceTask{}) rounded up
		rowSize  = int64(16)
		distSize = int64(16)
	)
	return int64(len(t.taskRecs))*taskSize +
		int64(len(t.rows))*rowSize +
		int64(len(t.subs))*rowSize +
		int64(len(t.exts))*8 +
		int64(len(t.dists))*distSize +
		256 // struct header + ledgers
}

// RetimeOptions selects the machine-dependent knobs a recorded schedule is
// re-priced under. Every field may differ from the recording run; none of
// them alters the schedule itself.
type RetimeOptions struct {
	Machine   sim.Machine
	Intersect sim.IntersectKind
	Extractor extractor.Kind
	// Rec, when non-nil, receives the machine-dependent half of a run's
	// instrumentation: the per-task extract.*_cycles, task.compute_cycles
	// and pe.subtask_cycles histograms, the pipeline model's per-task stage
	// spans, and the result's phase spans and ledger counters
	// (sim.Result.RecordTo). The capture-time half — tile sizes, kernel
	// statistics, cache counters — belongs to the recording pass, so
	// RecordTasks and Retime with the same recorder publish exactly what
	// one RunTasks does.
	Rec obs.Recorder
}

// Retime converts a recorded schedule into the simulation result it would
// have produced under the given machine configuration: the one-
// configuration replay of RetimeBatch, with the recorder attached. For the
// same machine, intersection unit and extractor kind as the recording run
// the returned Result is bit-for-bit identical to RunTasks, which prices
// through the same replay, at a cost that is a small constant per recorded
// work item, with no extraction, kernel or output-model work.
func Retime(tr *Trace, opt RetimeOptions) sim.Result {
	sc := retimePool.Get().(*retimeScratch)
	sc.plan([]RetimeConfig{{Machine: opt.Machine, Intersect: opt.Intersect, Extractor: opt.Extractor}}, opt.Rec)
	sc.replay(tr)
	res := sc.result(tr, 0)
	retimePool.Put(sc)
	res.RecordTo(opt.Rec)
	return res
}

// RecordTasks runs the task-stream engine once and returns the recorded
// schedule without pricing it. It performs the full extraction, kernel and
// output-model work and honors every engine option (including an
// attached Recorder, which receives the capture-time observations);
// retiming the trace under the run's machine, intersection unit and
// extractor kind yields exactly RunTasks' Result.
func RecordTasks(w *Workload, opt EngineOptions) (*Trace, error) {
	rec := obs.OrNop(opt.Rec)
	runSpan := rec.Begin(obs.CatPhase, "simulate")
	defer rec.End(runSpan)
	sp, err := w.space(&opt)
	if err != nil {
		return nil, err
	}
	trc := &Trace{Name: w.Name, hierarchical: opt.PELevel != nil}
	if err := runTasks(sp, opt, trc, nil); err != nil {
		return nil, err
	}
	return trc, nil
}

// beginTask opens the capture record for one non-empty task; the engine
// fills the task's item windows as it captures them.
func (t *Trace) beginTask(bytes, scanTiles int64, probes int, rebuiltTiles int64) *traceTask {
	t.taskRecs = append(t.taskRecs, traceTask{
		bytes:        bytes,
		scanTiles:    scanTiles,
		probes:       probes,
		rebuiltTiles: rebuiltTiles,
		rowsLo:       len(t.rows), rowsHi: len(t.rows),
		subsLo: len(t.subs), subsHi: len(t.subs),
		extsLo: len(t.exts), extsHi: len(t.exts),
		distsLo: len(t.dists), distsHi: len(t.dists),
	})
	return &t.taskRecs[len(t.taskRecs)-1]
}

// dropTasks empties the per-task arrays, keeping their capacity: the
// direct run reuses one task's worth of capture buffer for every task.
func (t *Trace) dropTasks() {
	t.taskRecs, t.rows, t.subs, t.exts, t.dists = t.taskRecs[:0], t.rows[:0], t.subs[:0], t.exts[:0], t.dists[:0]
}
