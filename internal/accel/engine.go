package accel

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/kernels"
	"drt/internal/obs"
	"drt/internal/sim"
	"drt/internal/tensor"
	"drt/internal/tiling"
)

// PartialBytes is the byte cost of one spilled partial-output element
// (coordinate + value) in the multiply-and-merge output model.
const PartialBytes = tensor.MetaBytes + tensor.ValueBytes

// EngineOptions configures one run of the generic task-stream engine.
// Every modeled accelerator is a particular setting of these options: its
// dataflow (loop order), its tiling discipline (strategy + initial sizes),
// its buffer partitioning and its intersection microarchitecture.
type EngineOptions struct {
	Machine          sim.Machine
	CapA, CapB, CapO int64
	LoopOrder        []int
	Strategy         core.Strategy
	InitialSize      []int
	Intersect        sim.IntersectKind
	Extractor        extractor.Kind
	// PELevel, when non-nil, applies DRT hierarchically (Sec. 3.2.1 /
	// Fig. 5): each DRAM→LLB task is re-tiled into LLB→PE sub-tasks by a
	// second tile extractor, which refines NoC traffic, PE load balance
	// and extraction-cycle accounting. DRAM traffic is unaffected — it is
	// set by the outer level.
	PELevel *PELevelOptions
	// ConstrainOutput registers the output tensor in the growth kernel so
	// its tile footprint caps growth against CapO (Alg. 1's sum-of-tile-
	// footprints check). Output-resident designs — the software study's
	// LLC inner product — want this; multiply-and-merge designs like
	// ExTensor-OP instead reduce partial outputs "until those tiles need
	// to be spilled" and leave growth unconstrained, paying spill traffic
	// through the output model.
	ConstrainOutput bool
	// Rec, when non-nil, receives the run's instrumentation: per-task
	// spans on the simulated-cycle timeline, tile-size and task-cycle
	// histograms, and the traffic/task counters. Leave nil to keep the
	// task loop allocation-free.
	Rec obs.Recorder
}

// PELevelOptions configures the inner (LLB→PE) tiling level. Its
// dataflow is always Fig. 5's K→I→J (see newPEState).
type PELevelOptions struct {
	CapA, CapB, CapO int64 // per-PE buffer partitions
	Strategy         core.Strategy
}

// regionState tracks one output macro region through the multiply-and-merge
// lifecycle (Sec. 5.2.1: ExTensor-OP "performs local reductions of partial
// sums in output tiles until those tiles need to be spilled to memory").
type regionState struct {
	key      [4]int
	estF     int64 // footprint of the region in the final output
	resident bool
	spilled  int64 // bytes of this region currently spilled to DRAM
	partial  int64 // partial-output points accumulated since load
}

// outputModel charges output (Z) traffic as regions of the output move
// between the output buffer partition and DRAM. Region footprints come
// from g, the reference product's micro-tile grid.
type outputModel struct {
	g       tiling.Summary
	capO    int64
	regions map[[4]int]*regionState
	fifo    []*regionState // resident regions in load order
	bytes   int64          // resident footprint total
	zTotal  int64          // accumulated Z traffic (reads + writes)
	// owed is the write-back the resident regions still owe: each is
	// written back at eviction or flush with at least its writeBack()
	// bytes, and its partial only grows while it stays resident, so
	// zTotal+owed never decreases and bounds the final zTotal from below.
	owed int64
}

// writeBack is the bytes writing the region's partials back takes: one
// spilled element per partial point, capped by the final footprint.
func (r *regionState) writeBack() int64 { return min(r.estF, r.partial*PartialBytes) }

func newOutputModel(g tiling.Summary, capO int64) *outputModel {
	return &outputModel{g: g, capO: capO, regions: map[[4]int]*regionState{}}
}

func (o *outputModel) estFootprint(k [4]int) int64 {
	return o.g.RegionFootprint(k[0], k[1], k[2], k[3])
}

// touch accounts one task's partial output landing in region (i0,i1,j0,j1)
// (grid coordinates) with newPartial fresh partial-output points.
func (o *outputModel) touch(k [4]int, newPartial int64) {
	if newPartial == 0 {
		return
	}
	r := o.regions[k]
	if r == nil {
		r = &regionState{key: k, estF: o.estFootprint(k)}
		o.regions[k] = r
	}
	if r.estF > o.capO {
		// The region alone exceeds the output partition: stream partials
		// through DRAM, re-reading the accumulated result to merge.
		o.zTotal += r.spilled // merge re-read
		r.partial += newPartial
		w := r.writeBack()
		o.zTotal += w // spill write
		r.spilled = w
		return
	}
	if !r.resident {
		for o.bytes+r.estF > o.capO && len(o.fifo) > 0 {
			o.evictHead()
		}
		r.resident = true
		o.fifo = append(o.fifo, r)
		o.bytes += r.estF
		if r.spilled > 0 {
			// A previously spilled partial is read back and merged into
			// the on-chip accumulation.
			o.zTotal += r.spilled
			r.spilled = 0
		}
	}
	o.owed -= r.writeBack()
	r.partial += newPartial
	o.owed += r.writeBack()
}

// evictHead writes back the region loaded first and pops it off the FIFO.
func (o *outputModel) evictHead() {
	r := o.fifo[0]
	o.fifo = o.fifo[1:]
	w := r.writeBack()
	o.owed -= w
	if r.spilled > 0 {
		w = max(w, r.spilled)
	}
	o.zTotal += w
	r.spilled = w
	r.partial = 0
	r.resident = false
	o.bytes -= r.estF
}

// flush writes back every resident region; called at end of kernel.
func (o *outputModel) flush() {
	for len(o.fifo) > 0 {
		o.evictHead()
	}
}

// RunTasks drives the task-stream engine: enumerate DRT (or static) tasks,
// charge input tile traffic as tiles are rebuilt, run the exact
// range-restricted kernel for compute statistics, account output traffic
// through the multiply-and-merge model, and price each task on the PE
// array and the extraction pipeline as soon as it is captured. It
// verifies the task partition covers the kernel exactly.
func RunTasks(w *Workload, opt EngineOptions) (sim.Result, error) {
	res, _, err := RunTasksBelow(w, opt, nil)
	return res, err
}

// Ceiling is a cycle bound shared by concurrent engine runs (see
// RunTasksBelow). The zero value is not usable; call NewCeiling.
type Ceiling struct{ bits atomic.Uint64 }

// NewCeiling returns an unbounded ceiling.
func NewCeiling() *Ceiling {
	c := &Ceiling{}
	c.bits.Store(math.Float64bits(math.Inf(1)))
	return c
}

// Load returns the current bound.
func (c *Ceiling) Load() float64 { return math.Float64frombits(c.bits.Load()) }

// Lower lowers the bound to v when v is below it.
func (c *Ceiling) Lower(v float64) {
	for {
		old := c.bits.Load()
		if v >= math.Float64frombits(old) || c.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// errAboveCeiling stops a run whose cycles already exceed its ceiling.
var errAboveCeiling = errors.New("accel: run exceeds its cycle ceiling")

// RunTasksBelow is RunTasks under a ceiling that other goroutines may
// lower while it runs (nil: no ceiling). Every term of Result.Cycles()
// has a lower bound that only grows as tasks are priced — DRAM cycles
// over the A+B+Z bytes charged so far plus the write-back the resident
// output regions still owe, the busiest PE and the extraction total — so
// their running maximum bounds the finished run's Cycles() from below.
// A static run's A+B bytes are known before it starts: when the ceiling
// is already finite as the run starts, the bound counts the larger of the
// A+B bytes charged so far and the exact A+B bytes its tile grid loads
// (staticFloor, 0 when the grid has a tile that overflows its partition).
// A run that starts unbounded skips the floor's grid pass: the first
// candidate of a sweep, which runs alone, can only finish.
// The run stops, returning ok=false and no Result, as soon as that bound
// is strictly above the ceiling — checked before the first task and after
// every task — or when the finished run is. A run that returns ok is
// exactly RunTasks' run: the checks read the pricing state and never
// change it.
func RunTasksBelow(w *Workload, opt EngineOptions, c *Ceiling) (sim.Result, bool, error) {
	rec := obs.OrNop(opt.Rec)
	runSpan := rec.Begin(obs.CatPhase, "simulate")
	defer rec.End(runSpan)
	sp, err := w.space(&opt)
	if err != nil {
		return sim.Result{}, false, err
	}
	var floor int64
	if c != nil && !math.IsInf(c.Load(), 1) {
		floor = staticFloor(w.current(), &opt)
	}
	return runBelow(w.Name, sp, opt, c, floor)
}

// runBelow runs the engine over sp and prices each task as it is
// captured, under ceiling c with the run's A+B bytes known to be at least
// floor (see RunTasksBelow).
func runBelow(name string, sp *taskSpace, opt EngineOptions, c *Ceiling, floor int64) (res sim.Result, ok bool, err error) {
	sc := retimePool.Get().(*retimeScratch)
	defer retimePool.Put(sc)
	sc.plan([]RetimeConfig{{Machine: opt.Machine, Intersect: opt.Intersect, Extractor: opt.Extractor}}, opt.Rec)
	sc.ceiling, sc.floor = c, floor
	trc := &sc.capture
	*trc = Trace{Name: name, hierarchical: opt.PELevel != nil,
		taskRecs: trc.taskRecs[:0], rows: trc.rows[:0], subs: trc.subs[:0], exts: trc.exts[:0], dists: trc.dists[:0]}
	if sc.above(trc, 0) {
		return sim.Result{}, false, nil
	}
	err = runTasks(sp, opt, trc, sc)
	if errors.Is(err, errAboveCeiling) {
		return sim.Result{}, false, nil
	}
	if err != nil {
		return sim.Result{}, false, err
	}
	res = sc.result(trc, 0)
	if c != nil && res.Cycles() > c.Load() {
		return sim.Result{}, false, nil
	}
	res.RecordTo(opt.Rec)
	return res, true, nil
}

// fullKOff sends full-K tasks through RestrictedGustavson like every
// other task; tests flip it to check that reading a full-K task's output
// count off GZ changes nothing.
var fullKOff bool

// taskSpace is all the engine loop reads of the kernel it walks: the DRT
// kernel, the exact work of one task, the reference product's micro-tile
// grid with the two kernel dimensions indexing its rows and columns, and
// the reference MACCs. Workload.space (SpMSpM) and GramWorkload.space
// (Gram) each supply one per run; only SpMSpM has a PE level.
type taskSpace struct {
	kernel *core.Kernel
	// work counts the task spanning ranges (grid coordinates, one per
	// kernel dimension) and returns its intersect ops.
	work    func(ranges []core.Range) (tr kernels.TaskResult, intersectOps int64)
	out     tiling.Summary
	outDims [2]int
	maccs   int64
	pe      *peState // nil without EngineOptions.PELevel
}

// space builds w when it is deferred and returns its task space under
// opt: SpMSpM intersects stream each coordinate and charge each MACC
// twice, scanned + 2·MACCs. A task whose K range spans the whole
// contraction takes its output count from the reference product's grid
// and its work from RestrictedWork; every other task runs
// RestrictedGustavson.
func (w *Workload) space(opt *EngineOptions) (*taskSpace, error) {
	w, err := w.Built()
	if err != nil {
		return nil, err
	}
	k := w.Kernel(opt.CapA, opt.CapB)
	if opt.ConstrainOutput {
		k = w.KernelWithOutput(opt.CapA, opt.CapB, opt.CapO)
	}
	spa := kernels.NewSPA(w.B.Cols)
	mt := w.MicroTile
	kExt := k.Extent[DimK]
	work := func(r []core.Range) (kernels.TaskResult, int64) {
		iR, kR, jR := coords(r[DimI], mt), coords(r[DimK], mt), coords(r[DimJ], mt)
		var tr kernels.TaskResult
		if r[DimK].Lo == 0 && r[DimK].Hi == kExt && !fullKOff {
			// A task spanning all of K touches exactly the reference
			// product's points inside its I×J box, which GZ counts.
			tr = kernels.RestrictedWork(w.A, w.B, iR, kR, jR, spa)
			tr.OutputNNZ = w.GZ.RegionNNZ(r[DimI].Lo, r[DimI].Hi, r[DimJ].Lo, r[DimJ].Hi)
		} else {
			tr = kernels.RestrictedGustavson(w.A, w.B, iR, kR, jR, spa)
		}
		return tr, tr.ScannedA + 2*tr.MACCs
	}
	sp := &taskSpace{kernel: k, work: work, out: w.GZ, outDims: [2]int{DimI, DimJ}, maccs: w.MACCs}
	if opt.PELevel != nil {
		sp.pe = newPEState(w, opt.PELevel)
	}
	return sp, nil
}

// coords converts a grid range to coordinates at micro tile mt.
func coords(r core.Range, mt int) kernels.Range {
	return kernels.Range{Lo: r.Lo * mt, Hi: r.Hi * mt}
}

// runTasks is the engine loop behind RunTasks, RecordTasks and RunGram.
// It only captures: every non-empty task's machine-invariant record (see
// Trace) lands in trc, and the run's ledgers land in trc when the walk
// ends. With a non-nil price, each task is priced as soon as it is
// captured and trc's per-task arrays are then emptied, so a direct run
// never holds more than one task of its schedule; a run whose priced
// cycles pass price's ceiling stops with errAboveCeiling.
func runTasks(sp *taskSpace, opt EngineOptions, trc *Trace, price *retimeScratch) error {
	rec := obs.OrNop(opt.Rec)
	// prog is the process-wide live-telemetry sink; nil (the default, and
	// the only state benchmarks ever see) makes every tick a no-op, so the
	// task loop stays allocation-free.
	prog := obs.Active()
	cfg := &core.Config{
		LoopOrder:   opt.LoopOrder,
		Strategy:    opt.Strategy,
		InitialSize: opt.InitialSize,
	}
	e, err := core.NewEnumerator(sp.kernel, cfg)
	if err != nil {
		return err
	}
	out := newOutputModel(sp.out, opt.CapO)

	// pendingLoad[op] holds the footprint of a rebuilt tile that has not
	// yet been charged: tiles rebuilt during empty tasks are never
	// fetched, so the charge lands on the first non-empty task that uses
	// the residency.
	pendingLoad := [2]int64{}
	ps := sp.pe
	if ps != nil {
		ps.slab = slabPool.Get().(*kernels.SlabCounts)
		defer ps.putSlab()
	}

	for {
		t, ok, err := e.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		trc.tasks++
		prog.TaskDone(1)
		if t.Overflow {
			trc.overflows++
		}
		for oi := 0; oi < 2; oi++ {
			if t.Rebuilt[oi] {
				pendingLoad[oi] = t.OpFootprint[oi]
				rec.Count("engine.tile_rebuilds", 1)
				if oi == OpA {
					rec.Observe("tile.a_bytes", float64(t.OpFootprint[oi]))
				} else {
					rec.Observe("tile.b_bytes", float64(t.OpFootprint[oi]))
				}
			}
		}
		if t.Empty {
			trc.emptyTasks++
			continue
		}
		// Charge input tile loads.
		var taskBytes int64
		for oi := 0; oi < 2; oi++ {
			if pendingLoad[oi] > 0 {
				taskBytes += pendingLoad[oi]
				if oi == OpA {
					trc.traffic.A += pendingLoad[oi]
				} else {
					trc.traffic.B += pendingLoad[oi]
				}
				pendingLoad[oi] = 0
			}
		}
		trc.inputTraffic += taskBytes
		var rebuiltTiles int64
		for oi, n := range t.OpTiles {
			if t.Rebuilt == nil || t.Rebuilt[oi] {
				rebuiltTiles += n
			}
		}
		tc := trc.beginTask(taskBytes, t.ScanTiles, t.Probes, rebuiltTiles)

		// Exact task-local compute.
		tr, ops := sp.work(t.Ranges)
		tr.Record(opt.Rec)
		trc.maccs += tr.MACCs
		trc.intersectOps += ops

		if ps != nil {
			// Hierarchical DRT: a second tile extractor splits the LLB
			// task into PE sub-tasks; each sub-task is one round-robin
			// work item and its tile distribution rides the NoC.
			maccs, err := runPELevel(ps, &opt, &t, trc)
			if err != nil {
				return err
			}
			if maccs != tr.MACCs {
				return fmt.Errorf("accel: %s: PE level covered %d MACCs of task's %d", trc.Name, maccs, tr.MACCs)
			}
			tc.subsHi = len(trc.subs)
			tc.extsHi = len(trc.exts)
			tc.distsHi = len(trc.dists)
		} else {
			for _, rw := range tr.Rows {
				trc.rows = append(trc.rows, rowCost{scanned: int64(rw.AElems) + rw.MACCs, maccs: rw.MACCs})
			}
			tc.rowsHi = len(trc.rows)
		}

		// Output accounting.
		oR, oC := t.Ranges[sp.outDims[0]], t.Ranges[sp.outDims[1]]
		out.touch([4]int{oR.Lo, oR.Hi, oC.Lo, oC.Hi}, tr.OutputNNZ)
		rec.Observe("task.input_bytes", float64(taskBytes))
		if price != nil {
			price.price(trc, tc)
			trc.dropTasks()
			if price.above(trc, out.zTotal+out.owed) {
				return errAboveCeiling
			}
		}
	}
	out.flush()
	trc.traffic.Z = out.zTotal
	recordCacheStats(rec, e.CacheStats(), ps)

	if trc.maccs != sp.maccs {
		return fmt.Errorf("accel: %s: task partition covered %d MACCs, kernel has %d", trc.Name, trc.maccs, sp.maccs)
	}
	return nil
}

// recordCacheStats publishes the run's box-query cache and sweep-log
// totals — outer extraction level plus, when present, the hierarchical
// PE level.
func recordCacheStats(rec obs.Recorder, st core.ExtractStats, ps *peState) {
	if ps != nil {
		inner := ps.e.CacheStats()
		st.BoxHits += inner.BoxHits
		st.BoxMisses += inner.BoxMisses
		st.StepHits += inner.StepHits
		st.StepMisses += inner.StepMisses
	}
	rec.Count("extract.boxcache.hits", st.BoxHits)
	rec.Count("extract.boxcache.misses", st.BoxMisses)
	rec.Count("extract.steplog.hits", st.StepHits)
	rec.Count("extract.steplog.misses", st.StepMisses)
}

// peState is the hierarchical level's reusable machinery: one enumerator
// re-windowed per outer task (its builder scratch and box cache survive
// the Reset), the J ranges of the current K step's B sub-tiles, truncated
// in place, the record of the current K step's J sweep, the count scratch
// that prices sub-tasks (pooled across runs, see slabPool), and the
// capture state of the current outer task.
type peState struct {
	w   *Workload
	e   *core.Enumerator
	err error
	// sentJ holds the J ranges of the B sub-tiles rebuilt in the current
	// K step (see runPELevel).
	sentJ rangeSet
	// stepK is the K range sentJ and sweep belong to; the zero Range is
	// none.
	stepK core.Range
	// sweep records the J sweep of the current K step's first I range
	// whose A sub-tile is non-empty (see runPELevel).
	sweep []peTask
	// slab is bound to the outer task's window and holds the J-sweep
	// counts of the current resident A sub-tile, named by its I and K grid
	// ranges slabKey once slabOK is set (see runPELevel). runTasks takes
	// it from slabPool for the run.
	slab    *kernels.SlabCounts
	slabKey [2]core.Range
	slabOK  bool
	// pending holds each operand's rebuilt sub-tile until a non-empty
	// sub-task distributes it: a later rebuild overwrites the slot, and
	// tiles rebuilt during empty sub-tasks are never sent.
	pending [2]distEvent
	pendSet [2]bool
	// maccs sums the outer task's sub-task MACCs.
	maccs int64
}

// peTask is what the PE level captures of one sub-task: its grid ranges,
// whether each operand's sub-tile was rebuilt for it, the footprint and
// micro-tile count of each operand's sub-tile, and whether some operand's
// sub-tile is empty.
type peTask struct {
	i, k, j   core.Range
	rebuilt   [2]bool
	footprint [2]int64
	tiles     [2]int64
	empty     bool
}

// opens reports whether t, the first sub-task of an I range, opens the
// same J sweep as s, a recorded sweep's first sub-task: the same J range,
// the same B sub-tile and the same emptiness.
func (s *peTask) opens(t *peTask) bool {
	return s.j == t.j && s.footprint[OpB] == t.footprint[OpB] && s.tiles[OpB] == t.tiles[OpB] && s.empty == t.empty
}

// rangeSet is a set of ranges kept in ascending (Lo, Hi) order. A lookup
// resumes where the previous one stopped, or from the start when the
// range is not past the previous one, so a run of ascending lookups —
// one I range's J sweep — walks the list once.
type rangeSet struct {
	rs []core.Range
	at int // one past the last range added
}

func (s *rangeSet) reset() { s.rs, s.at = s.rs[:0], 0 }

// add inserts r and reports whether it was already in the set.
func (s *rangeSet) add(r core.Range) bool {
	before := func(a core.Range) bool { return a.Lo < r.Lo || a.Lo == r.Lo && a.Hi < r.Hi }
	if s.at > 0 && !before(s.rs[s.at-1]) {
		s.at = 0
	}
	for s.at < len(s.rs) && before(s.rs[s.at]) {
		s.at++
	}
	had := s.at < len(s.rs) && s.rs[s.at] == r
	if !had {
		s.rs = slices.Insert(s.rs, s.at, r)
	}
	s.at++
	return had
}

// slabPool reuses the PE level's count scratch across runs, the way
// retimePool reuses the pricing scratch: its row cursors, B-run arena and
// prefix sums grow to the largest window seen instead of being allocated
// per run.
var slabPool = sync.Pool{New: func() any { return new(kernels.SlabCounts) }}

// putSlab returns the run's count scratch to slabPool.
func (ps *peState) putSlab() {
	ps.slab.Release()
	slabPool.Put(ps.slab)
	ps.slab = nil
}

func newPEState(w *Workload, pl *PELevelOptions) *peState {
	ps := &peState{w: w}
	k := w.Kernel(pl.CapA, pl.CapB)
	// The LLB→PE dataflow is Fig. 5's K→I→J: A's sub-tile stays resident
	// while J sweeps the outer task's J window, which is what lets
	// runPELevel price a whole sweep from one SlabCounts pass.
	cfg := &core.Config{
		LoopOrder: []int{DimK, DimI, DimJ},
		Strategy:  pl.Strategy,
	}
	ps.e, ps.err = core.NewEnumerator(k, cfg)
	return ps
}

// sweepReplayOff makes the PE level walk every J sweep; tests flip it to
// check that replaying a recorded sweep changes nothing. sweepReplays
// counts the sweeps replayed, so those tests can check that they replay
// some.
var (
	sweepReplayOff bool
	sweepReplays   atomic.Int64
)

// runPELevel re-tiles one outer task with the PE-level extractor and
// captures, into the trace's flat ledgers, each non-empty sub-task's
// intersection work, each fresh sub-tile's Aggregate tile count and each
// NoC distribution event (the caller closes the task's windows). It
// returns the MACCs its sub-tasks cover; pricing deals the sub-tasks
// round-robin across the PE array.
//
// A rebuild that re-derives a sub-tile region already distributed in the
// outer task is served by the NoC's multicast (Sec. 5.2.1 notes
// ExTensor's regular multicast patterns): its bytes amortize across the
// PE array and its metadata needs no rebuild. Under K→I→J, A's sub-tile
// (I, K) is rebuilt only at a new (I, K) origin, so it never repeats. B's
// sub-tile (K, J) repeats only inside its own K step, as the J sweep
// recurs for every I range, so the J ranges of B's rebuilds since K last
// moved (ps.sentJ) decide its multicasts.
//
// Sub-tasks are priced without multiplying: the count scratch is bound to
// the outer task's window (kernels.(*SlabCounts).Window), the first
// non-empty sub-task of each A sub-tile counts that slab's MACCs per J
// micro tile over the outer J window (Count), and it and every later
// sub-task of the same slab read their MACCs and scanned-A from those
// counts. K steps ascend, so each A row's slab pass resumes where the
// previous K step's stopped, and B's binned rows are kept across the
// outer tasks of an I sweep. Over one outer task the slab passes visit
// each of its MACCs at most once, and the caller checks the sub-tasks'
// MACCs against the outer multiply's.
//
// The J sweep is walked once per K step. When I advances, K is frozen and
// J restarts at the window origin, so B's builds, the only ones a J step
// makes, are a pure function of the K range, its fallback cap and the J
// window; and while A's sub-tile is non-empty, an empty sub-task is empty
// by B alone, so coalescing empty sub-tasks gallops over B's occupancy
// alone. Every I range of a K step whose A sub-tile is non-empty therefore
// walks the same sweep. The first such sweep is recorded (ps.sweep); each
// later one whose first sub-task opens the recorded sweep (peTask.opens)
// captures the record's remaining sub-tasks, B-only rebuilds, under its
// own I range through the same capture as a walked sub-task, and skips
// the enumerator past them. A first sub-task that differs is walked.
func runPELevel(ps *peState, opt *EngineOptions, outer *core.Task, trc *Trace) (int64, error) {
	if ps.err != nil {
		return 0, ps.err
	}
	rec := obs.OrNop(opt.Rec)
	e := ps.e
	if err := e.Reset(outer.Ranges); err != nil {
		return 0, err
	}
	w, mt := ps.w, ps.w.MicroTile
	ps.slab.Window(w.A, w.B, coords(outer.Ranges[DimI], mt), coords(outer.Ranges[DimK], mt), coords(outer.Ranges[DimJ], mt), mt)
	ps.slabOK, ps.pendSet, ps.maccs = false, [2]bool{}, 0
	ps.stepK = core.Range{}
	// recording is set while the current I range's sweep is being
	// recorded.
	recording := false
	var replays int64
	for {
		t, ok, err := e.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		pt := peTask{
			i: t.Ranges[DimI], k: t.Ranges[DimK], j: t.Ranges[DimJ],
			rebuilt:   [2]bool{t.Rebuilt[OpA], t.Rebuilt[OpB]},
			footprint: [2]int64{t.OpFootprint[OpA], t.OpFootprint[OpB]},
			tiles:     [2]int64{t.OpTiles[OpA], t.OpTiles[OpB]},
			empty:     t.Empty,
		}
		if pt.k != ps.stepK {
			// A new K step: no B sub-tile of it is sent or recorded yet.
			ps.stepK = pt.k
			ps.sentJ.reset()
			ps.sweep = ps.sweep[:0]
		}
		if pt.rebuilt[OpA] {
			// A new I range opens a J sweep.
			recording = false
			if t.OpNNZ[OpA] > 0 {
				if len(ps.sweep) == 0 {
					recording = true
				} else if !sweepReplayOff && ps.sweep[0].opens(&pt) {
					// The record's later sub-tasks are J steps of this K
					// step: they rebuild B only, so only I differs.
					ps.capture(&pt, rec, trc)
					for _, s := range ps.sweep[1:] {
						s.i = pt.i
						ps.capture(&s, rec, trc)
					}
					e.SkipInner()
					replays++
					continue
				}
			}
		}
		if recording {
			ps.sweep = append(ps.sweep, pt)
		}
		ps.capture(&pt, rec, trc)
	}
	if replays > 0 {
		sweepReplays.Add(replays)
	}
	return ps.maccs, nil
}

// capture records one sub-task of the current outer task (see
// runPELevel): each rebuilt sub-tile's multicast decision and Aggregate
// tile count, and, when the sub-task is non-empty, the distributions it
// triggers and its slab-priced work.
func (ps *peState) capture(t *peTask, rec obs.Recorder, trc *Trace) {
	for oi := 0; oi < 2; oi++ {
		if !t.rebuilt[oi] {
			continue
		}
		ps.pendSet[oi] = true
		if oi == OpB {
			if ps.sentJ.add(t.j) {
				// Multicast replay of an already-distributed sub-tile.
				ps.pending[oi] = distEvent{footprint: t.footprint[oi], multicast: true}
				rec.Count("pe.multicast_replays", 1)
				continue
			}
		}
		ps.pending[oi] = distEvent{footprint: t.footprint[oi]}
		// Second-level extraction for this operand's new sub-tile is
		// the Aggregate unit's P-wide pass over its micro-tile
		// metadata; metadata itself was already built by the DRAM
		// S-DOP (Fig. 5 streams micro tile pointers to the PEs, with
		// no re-emission at this level). Captured under either
		// extractor kind so the trace prices correctly for both.
		trc.exts = append(trc.exts, t.tiles[oi])
	}
	if t.empty {
		return
	}
	for oi := 0; oi < 2; oi++ {
		if ps.pendSet[oi] {
			trc.dists = append(trc.dists, ps.pending[oi])
			ps.pendSet[oi] = false
		}
	}
	mt := ps.w.MicroTile
	if key := [2]core.Range{t.i, t.k}; !ps.slabOK || key != ps.slabKey {
		ps.slab.Count(coords(key[0], mt), coords(key[1], mt))
		ps.slabKey, ps.slabOK = key, true
	}
	m := ps.slab.MACCs(coords(t.j, mt))
	ps.maccs += m
	trc.subs = append(trc.subs, rowCost{scanned: ps.slab.ScannedA + 2*m, maccs: m})
	rec.Count("pe.subtasks", 1)
}
