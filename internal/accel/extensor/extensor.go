// Package extensor models the ExTensor accelerator family of the paper's
// Study 1 (Sec. 5.2.1): the original inner-product S-U-C design, the
// improved ExTensor-OP (outer-product dataflow between the global and
// local buffers with multiply-and-merge), and ExTensor-OP-DRT ("TACTile"),
// which replaces the static tiler with the DRT tile extractor.
//
// All three share the task-stream engine in internal/accel; they differ
// only in loop order (dataflow), tiling strategy and, for the S-U-C
// designs, the static tile-shape sweep the paper grants the baseline
// ("our evaluation represents a best-case scenario for an S-U-C scheme").
package extensor

import (
	"fmt"
	"sort"

	"drt/internal/accel"
	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/obs"
	"drt/internal/par"
	"drt/internal/sim"
)

// Variant selects the modeled design.
type Variant int

const (
	// Original is ExTensor as published: inner-product (output
	// stationary) dataflow with S-U-C tiling at each level.
	Original Variant = iota
	// OP is ExTensor-OP: outer-product dataflow between global and local
	// buffers with local reduction of partial outputs, still S-U-C.
	OP
	// OPDRT is ExTensor-OP-DRT (TACTile): ExTensor-OP with the DRT tile
	// extractor in each S-DOP.
	OPDRT
)

// String returns the variant name used in the figures.
func (v Variant) String() string {
	if s, ok := variants[v]; ok {
		return s.name
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// variantSpec is one variant's fixed hardware, read by engineOptions,
// retimeConfig and BestStaticShape alike.
type variantSpec struct {
	name      string
	loopOrder []int
	// static variants tile with S-U-C shapes and have no DRT extractor.
	static bool
	// skipBased pins the published design's serial skip-based
	// intersection unit; the others use the parallelized one (Sec.
	// 5.2.1).
	skipBased bool
}

var variants = map[Variant]variantSpec{
	// Output-stationary inner product: I → J → K.
	Original: {name: "ExTensor", loopOrder: []int{accel.DimI, accel.DimJ, accel.DimK}, static: true, skipBased: true},
	// B-stationary outer-product-style dataflow: J → K → I.
	OP:    {name: "ExTensor-OP", loopOrder: []int{accel.DimJ, accel.DimK, accel.DimI}, static: true},
	OPDRT: {name: "ExTensor-OP-DRT", loopOrder: []int{accel.DimJ, accel.DimK, accel.DimI}},
}

// Options carries the machine and study knobs.
type Options struct {
	Machine   sim.Machine
	Partition sim.Partition
	Intersect sim.IntersectKind
	Extractor extractor.Kind
	// Strategy applies to OPDRT only: GreedyContractedFirst (default) or
	// Alternating (Fig. 15 study).
	Strategy core.Strategy
	// InitialSize optionally overrides DRT's starting tile size per
	// kernel dimension in micro tiles (Fig. 16 sweeps the J entry).
	InitialSize []int
	// SingleLevel disables the hierarchical LLB→PE tiling level of
	// ExTensor-OP-DRT (Sec. 4: "DRT sub-divides tiles twice"); traffic is
	// unchanged but NoC/extraction/load-balance detail is coarser.
	SingleLevel bool
	// StaticShape pins the S-U-C variants to one tile shape [I, J, K]
	// (grid units) instead of sweeping candidates. Multi-kernel workloads
	// like MS-BFS sweep once per workload, not once per kernel (Sec. 5.2:
	// the paper sweeps per workload).
	StaticShape []int
	// Parallel is the worker count the static-shape sweep evaluates its
	// candidates across (0 or negative = one per CPU, 1 = sequential).
	// The winning shape — and therefore the returned Result — is
	// identical at any setting (see sweepShapes).
	Parallel int
	// Rec, when non-nil, receives the run's instrumentation (see
	// accel.EngineOptions.Rec). The static-shape sweep records only the
	// winning shape's run, so an attached recorder's totals match the
	// returned Result; the winning configuration is re-simulated once for
	// that, an overhead only paid when a recorder is attached.
	Rec obs.Recorder
}

// DefaultOptions returns the normalized configuration of Sec. 5.2.1.
func DefaultOptions() Options {
	return Options{
		Machine:   sim.DefaultMachine(),
		Partition: sim.DefaultPartition(),
		Intersect: sim.Parallel,
		Extractor: extractor.ParallelExtractor,
		Strategy:  core.GreedyContractedFirst,
	}
}

// engineOptions maps (variant, options) onto the task-stream engine's
// configuration, with the variant's hardware applied as retimeConfig
// applies it. For the S-U-C variants InitialSize carries StaticShape and
// is left unset when no shape is pinned (the sweep fills it per
// candidate). v must be a known variant.
func engineOptions(v Variant, opt Options) accel.EngineOptions {
	spec := variants[v]
	cfg := retimeConfig(v, opt)
	capA, capB, capO := opt.Partition.Split(opt.Machine.GlobalBuffer)
	base := accel.EngineOptions{
		Machine: opt.Machine,
		CapA:    capA, CapB: capB, CapO: capO,
		LoopOrder: spec.loopOrder,
		Intersect: cfg.Intersect,
		Extractor: cfg.Extractor,
		Rec:       opt.Rec,
	}
	if spec.static {
		base.Strategy = core.Static
		base.InitialSize = opt.StaticShape
		return base
	}
	base.Strategy = opt.Strategy
	base.InitialSize = opt.InitialSize
	if !opt.SingleLevel {
		// Second tiling level: each LLB tile is re-tiled into PE
		// sub-tiles with the K → I → J dataflow of Fig. 5.
		pa, pb, po := opt.Partition.Split(opt.Machine.PEBuffer)
		base.PELevel = &accel.PELevelOptions{
			CapA: pa, CapB: pb, CapO: po,
			Strategy: opt.Strategy,
		}
	}
	return base
}

// Run simulates one workload on the selected variant.
func Run(v Variant, w *accel.Workload, opt Options) (sim.Result, error) {
	if err := opt.Partition.Validate(); err != nil {
		return sim.Result{}, err
	}
	spec, ok := variants[v]
	if !ok {
		return sim.Result{}, fmt.Errorf("extensor: unknown variant %d", int(v))
	}
	base := engineOptions(v, opt)
	if spec.static && opt.StaticShape == nil {
		// The sweep instruments only the winning shape's run; runSweep
		// re-simulates it with the recorder when one is attached.
		base.Rec = nil
		r, _, err := runSweep(w, base, opt.Parallel, opt.Rec)
		return r, err
	}
	return accel.RunTasks(w, base)
}

// Record runs the variant's engine once in capture mode and returns the
// recorded schedule (see accel.Trace): the trace retimes bit-for-bit under
// any Machine speed knob, IntersectKind or extractor.Kind, but is bound to
// everything that shapes the schedule — workload, variant, partition,
// buffer sizes, strategy, initial sizes and SingleLevel. The S-U-C
// variants require a pinned StaticShape: their static-shape sweep picks
// the winner by cycle count, which is machine-dependent, so an un-pinned
// sweep schedule is not machine-invariant.
func Record(v Variant, w *accel.Workload, opt Options) (*accel.Trace, error) {
	if err := opt.Partition.Validate(); err != nil {
		return nil, err
	}
	spec, ok := variants[v]
	if !ok {
		return nil, fmt.Errorf("extensor: unknown variant %d", int(v))
	}
	if spec.static && opt.StaticShape == nil {
		return nil, fmt.Errorf("extensor: recording %v requires StaticShape — the static-shape sweep's winner is machine-dependent", v)
	}
	return accel.RecordTasks(w, engineOptions(v, opt))
}

// Retime re-prices a trace recorded by Record for the same variant under
// the machine-dependent knobs in opt (Machine speeds, Intersect,
// Extractor, Rec). The variant's hardware overrides are re-applied exactly
// as Run applies them — Original pins the serial skip-based unit and both
// S-U-C variants have no DRT extractor — so sweeping opt.Intersect or
// opt.Extractor over a static-variant trace is a no-op, matching Run.
func Retime(v Variant, tr *accel.Trace, opt Options) sim.Result {
	cfg := retimeConfig(v, opt)
	return accel.Retime(tr, accel.RetimeOptions{
		Machine:   cfg.Machine,
		Intersect: cfg.Intersect,
		Extractor: cfg.Extractor,
		Rec:       opt.Rec,
	})
}

// retimeConfig maps one study configuration onto the engine's pricing
// knobs, applying the variant's hardware overrides exactly as Run does.
func retimeConfig(v Variant, opt Options) accel.RetimeConfig {
	spec := variants[v]
	cfg := accel.RetimeConfig{
		Machine:   opt.Machine,
		Intersect: opt.Intersect,
		Extractor: opt.Extractor,
	}
	if spec.skipBased {
		cfg.Intersect = sim.SkipBased
	}
	if spec.static {
		cfg.Extractor = extractor.IdealExtractor // no DRT hardware
	}
	return cfg
}

// RetimeBatch prices a recorded schedule under every configuration in one
// streaming pass (accel.Trace.RetimeBatch), with the variant's hardware
// overrides applied per configuration exactly as Retime applies them.
// Results are bit-identical to calling Retime per configuration; any
// attached recorders are ignored (batched replay emits no spans).
func RetimeBatch(v Variant, tr *accel.Trace, opts []Options) []sim.Result {
	cfgs := make([]accel.RetimeConfig, len(opts))
	for i, o := range opts {
		cfgs[i] = retimeConfig(v, o)
	}
	return tr.RetimeBatch(cfgs)
}

// runSweep performs the paper's per-workload static-shape sweep over the
// accel.StaticShapes candidates for base's partitions and returns the
// best (lowest-cycle) result and its shape. When a recorder is attached it
// re-simulates the winning shape with instrumentation, so the recorder
// reflects exactly one run — the one whose Result is returned — rather
// than the sum of all candidates. A deferred workload is built first: the
// shapes' task counts read its grids.
func runSweep(w *accel.Workload, base accel.EngineOptions, workers int, rec obs.Recorder) (sim.Result, []int, error) {
	w, err := w.Built()
	if err != nil {
		return sim.Result{}, nil, err
	}
	r, shape, err := sweepShapes(w, base, accel.StaticShapes(w, base.CapA, base.CapB), workers)
	if err != nil || rec == nil {
		return r, shape, err
	}
	sweepSpan := rec.Begin(obs.CatPhase, "sweep-replay")
	defer rec.End(sweepSpan)
	base.InitialSize = shape
	base.Rec = rec
	r, err = accel.RunTasks(w, base)
	return r, shape, err
}

// sweepShapes is the sweep over the given candidate shapes, a
// branch-and-bound search. Candidates start cheapest first, by their
// grid's task count, and share one ceiling: each completed run lowers it
// to its cycles, and every running candidate stops as soon as its cycles
// provably exceed it (accel.RunTasksBelow). The cheapest runs alone, and
// the rest fan out over the workers under the ceiling it set. A candidate
// whose grid's exact A+B bytes alone already take more DRAM cycles than
// the ceiling stops before its first task, running no kernel. The result
// is the lowest (cycles, proposal index) among completed runs, which is
// exactly what running every candidate to the end and keeping the first
// strict minimum in proposal order returns, at any worker count: the
// ceiling is always some completed run's cycles, so a stopped candidate
// is strictly slower than that run, while the winner's running cycles
// never pass the minimum and it always completes, unchanged by the
// checks. A candidate is only stopped after another has succeeded, so
// when none succeeds every candidate ran to its end and the first error
// in proposal order is reported. Which losers stop, and how far they get,
// depends on timing when workers > 1. w must be built.
func sweepShapes(w *accel.Workload, base accel.EngineOptions, shapes [][3]int, workers int) (sim.Result, []int, error) {
	// The tile volume is fixed, so a shape's cost grows with its task
	// count. The cheapest candidates finish first and set the ceiling the
	// costlier ones are cut against.
	gaR, gaC := w.GA.Extents()
	_, gbC := w.GB.Extents()
	tasks := make([]int64, len(shapes))
	order := make([]int, len(shapes))
	for i, s := range shapes {
		tasks[i] = int64(ceilDiv(gaR, s[0])) * int64(ceilDiv(gbC, s[1])) * int64(ceilDiv(gaC, s[2]))
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return tasks[order[a]] < tasks[order[b]] })
	type candidate struct {
		r   sim.Result
		ok  bool
		err error
	}
	ceiling := accel.NewCeiling()
	cands := make([]candidate, len(shapes))
	run := func(i int) {
		opt := base
		opt.InitialSize = []int{shapes[i][0], shapes[i][1], shapes[i][2]}
		r, ok, err := accel.RunTasksBelow(w, opt, ceiling)
		if ok {
			ceiling.Lower(r.Cycles())
		}
		cands[i] = candidate{r: r, ok: ok, err: err}
	}
	// The cheapest candidate runs alone, so every other one starts under
	// the ceiling it sets instead of racing it unbounded to the end. The
	// mapped function never fails: each candidate's error is kept in
	// cands and resolved in proposal order below.
	if len(order) > 0 {
		run(order[0])
		_, _ = par.Map(workers, len(order)-1, func(n int) (struct{}, error) {
			run(order[n+1])
			return struct{}{}, nil
		})
	}
	var best sim.Result
	var bestShape []int
	var firstErr error
	for i, cand := range cands {
		if cand.err != nil {
			if firstErr == nil {
				firstErr = cand.err
			}
			continue
		}
		if cand.ok && (bestShape == nil || cand.r.Cycles() < best.Cycles()) {
			best = cand.r
			bestShape = []int{shapes[i][0], shapes[i][1], shapes[i][2]}
		}
	}
	if bestShape == nil {
		return sim.Result{}, nil, fmt.Errorf("extensor: no static shape succeeded: %w", firstErr)
	}
	return best, bestShape, nil
}

// BestStaticShape sweeps the S-U-C candidates for the given variant on one
// representative workload and returns the winning [I, J, K] shape (grid
// units). Multi-kernel workloads pin this shape across their kernels via
// Options.StaticShape.
func BestStaticShape(v Variant, w *accel.Workload, opt Options) ([]int, error) {
	if spec, ok := variants[v]; !ok || !spec.static {
		return nil, fmt.Errorf("extensor: %v is not a static variant", v)
	}
	base := engineOptions(v, opt)
	base.Rec = nil
	_, shape, err := runSweep(w, base, opt.Parallel, nil)
	return shape, err
}

// ceilDiv is ⌈a/b⌉ for positive b.
func ceilDiv(a, b int) int {
	if b < 1 {
		b = 1
	}
	return (a + b - 1) / b
}
