// Package exp implements the paper's evaluation: one runner per figure and
// table (see DESIGN.md §4 for the experiment index). Each runner returns a
// plain-text table carrying the same rows/series the paper's plot reports;
// cmd/drtbench prints them and the root bench harness wraps each in a Go
// benchmark.
//
// Workloads are scaled down by Options.Scale (dimensions ÷ scale,
// occupancy ÷ scale², density preserved); on-chip buffer capacities scale
// by scale² so the working-set-to-buffer ratios — which determine tiling
// behavior — match the full-size configuration.
package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"drt/internal/accel"
	"drt/internal/cpuref"
	"drt/internal/diskcache"
	"drt/internal/gen"
	"drt/internal/obs"
	"drt/internal/par"
	"drt/internal/sim"
	"drt/internal/tensor"
	"drt/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Scale divides workload dimensions (1 = full paper scale).
	Scale int
	// MicroTile is the S-U-C micro tile edge (Sec. 5.2.4 uses 32×32 at
	// full scale; the default scales it with the matrices).
	MicroTile int
	// MaxWorkloads caps the number of catalog entries per experiment
	// (0 = all); tests and quick benches use small values.
	MaxWorkloads int
	// Parallel is the worker count the runners fan their (workload ×
	// config) cells across (0 or negative = one worker per CPU, resolved
	// once by NewContext). The same count drives the parallel reference
	// kernels during workload preparation. Results are reassembled in
	// input order and the parallel kernels are bit-identical to the
	// sequential ones, so every table is byte-identical to a Parallel == 1
	// (sequential) run.
	Parallel int
	// TraceStore, when non-empty, is the directory of the persistent trace
	// store: recorded schedules are written as content-addressed .drtt
	// files and loaded back by any later process (see store.go). Replayed
	// traces retime bit-for-bit identical to direct runs, so tables never
	// depend on the store's state. The zero value keeps the store off —
	// CLIs opt in via -trace-store / DRT_TRACE_CACHE (TraceStoreDir).
	TraceStore string
	// Shard restricts the shardable experiments (fig6, fig7, tab3 — the
	// full-scale sweeps) to one contiguous block of their per-matrix cells.
	// Shard k of n runs rows [k·m/n, (k+1)·m/n) of the deterministic entry
	// order, so the shards' tables concatenate (and their metrics dumps
	// merge, see metrics.MergeDumps) into exactly the unsharded tables.
	Shard Shard
	// NoOperandCache bypasses the on-disk operand cache for this run even
	// when DRT_OPERAND_CACHE enables it. Cached and fresh operands are
	// bit-identical (pinned by gen's round-trip tests), so this knob never
	// changes a table.
	NoOperandCache bool
	// Rec, when non-nil, receives run metadata (each prepared workload's
	// generator spec) and wall-clock phase spans for workload preparation,
	// so the benchmark harness's metrics dump records how to rebuild every
	// synthetic input exactly.
	Rec obs.Recorder
	// Progress, when non-nil, receives live-run telemetry: every runner
	// registers its (workload × config) cells with their scaled-nnz
	// weights before dispatch and reports each completion, driving the
	// nnz-weighted ETA and per-worker utilization the debug server and
	// -progress line expose. Nil keeps the dispatch path timing-free.
	Progress *obs.Progress
	// Log, when non-nil, receives structured run events: per-cell timings
	// of slowCell or more at Info (the long-tail tile watch), every cell
	// at Debug. Nil disables logging with no overhead.
	Log *slog.Logger
}

// slowCell is the per-cell wall time from which Options.Log records a
// cell at Info.
const slowCell = 5 * time.Second

// DefaultOptions is the configuration drtbench uses.
func DefaultOptions() Options {
	return Options{Scale: 16, MicroTile: 16}
}

// Context memoizes prepared workloads and recorded engine traces across
// experiments (building a workload involves the exact reference SpMSpM;
// recording a trace involves a full engine run). It is safe for concurrent
// use: parallel runners may request the same entry and each cell is
// generated exactly once.
type Context struct {
	Opt Options

	// store is the disk tier behind the trace cache (nil-safe; disabled
	// when Opt.TraceStore is empty). See store.go.
	store *diskcache.Cache
	// summaries holds the S² workload summary records on the same root,
	// next to the schedules that need them (see store.go).
	summaries *diskcache.Cache

	mu     sync.Mutex
	spmspm map[string]*workloadCell[*accel.Workload]
	grams  map[string]*workloadCell[*accel.GramWorkload]
	traces map[traceKey]*traceCell
	// traceSeen marks configurations requested at least once: the trace
	// cache only records a schedule on its second request (see cache.go).
	traceSeen  map[traceKey]bool
	traceBytes int64 // retained recorded-trace bytes, vs traceBudget
	// traceBudget bounds traceBytes: least-recently-used traces are
	// evicted past it, and a negative budget disables eviction. Eviction
	// only costs a re-recording on a later request, never changes a
	// table.
	traceBudget int64
	useTick     int64 // LRU clock for trace eviction
	// specs holds the generator spec behind each workload the context
	// built, by workload key; the trace store's disk keys include it.
	specs map[string]gen.Spec
}

// workloadCell is one memoized workload (SpMSpM or Gram); the Once
// guarantees exactly one generation even when concurrent runners race on
// the same key.
type workloadCell[W any] struct {
	once sync.Once
	w    W
	err  error
}

// NewContext returns a fresh experiment context.
func NewContext(opt Options) *Context {
	if opt.Scale < 1 {
		opt.Scale = 1
	}
	if opt.MicroTile < 1 {
		opt.MicroTile = 16
	}
	opt.Parallel = par.Workers(opt.Parallel)
	c := &Context{
		Opt:         opt,
		spmspm:      map[string]*workloadCell[*accel.Workload]{},
		grams:       map[string]*workloadCell[*accel.GramWorkload]{},
		traces:      map[traceKey]*traceCell{},
		traceSeen:   map[traceKey]bool{},
		specs:       map[string]gen.Spec{},
		traceBudget: defaultTraceBudget,
	}
	if opt.TraceStore != "" {
		c.store = diskcache.New(opt.TraceStore, ".drtt", traceStoreBudget)
		c.summaries = diskcache.New(opt.TraceStore, ".drtw", traceStoreBudget)
	}
	return c
}

// forEntries fans f over the entries on the context's worker pool and
// returns the per-entry results in entry order. With a Progress attached
// the cells are registered up front with their scaled-nnz weights (the
// same non-zero totals the tiling summaries' prefix sums carry), so the
// live ETA weighs a heavy long-tail matrix by its actual work, not as one
// uniform cell; with a Log attached, cells of slowCell or more surface
// at Info.
func forEntries[T any](c *Context, entries []workloads.Entry, f func(e workloads.Entry) (T, error)) ([]T, error) {
	run := func(i int) (T, error) { return f(entries[i]) }
	if log := c.Opt.Log; log != nil {
		run = func(i int) (T, error) {
			start := time.Now()
			v, err := f(entries[i])
			d := time.Since(start)
			lvl := slog.LevelDebug
			if d >= slowCell {
				lvl = slog.LevelInfo
			}
			log.Log(context.Background(), lvl, "cell done", "entry", entries[i].Name, "seconds", d.Seconds(), "err", err)
			return v, err
		}
	}
	weights := make([]int64, len(entries))
	for i, e := range entries {
		weights[i] = cellWeight(e, c.Opt.Scale)
	}
	return par.MapWith(c.pool(weights), len(entries), run)
}

// pool is the par pool configuration the context's options select: worker
// count, per-cell weights (nil is allowed; weighted cells start heaviest
// first) and the live progress sink. Every runner fan-out goes through it
// so one -parallel setting governs every experiment's cells.
func (c *Context) pool(weights []int64) par.Options {
	return par.Options{
		Workers:  c.Opt.Parallel,
		Weights:  weights,
		Progress: c.Opt.Progress,
	}
}

// gridWeights builds the weight vector for a flattened (config × entry)
// grid of n cells: entryAt maps a cell index back to its catalog entry,
// and the weight is that entry's scaled nnz — configuration knobs sweep
// the same workload, so the entry dominates a cell's cost.
func (c *Context) gridWeights(n int, entryAt func(i int) workloads.Entry) []int64 {
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = cellWeight(entryAt(i), c.Opt.Scale)
	}
	return weights
}

// cellWeight is one catalog entry's a-priori work weight: its scaled
// non-zero count (dimensions shrink by scale, occupancy by scale²), the
// quantity the tiling summaries' nnz prefixes total once the workload is
// built. A floor of 1 keeps empty-looking cells from vanishing out of the
// ETA denominator.
func cellWeight(e workloads.Entry, scale int) int64 {
	w := int64(e.NNZ) / int64(scale*scale)
	if w < 1 {
		w = 1
	}
	return w
}

// Machine returns the accelerator machine with buffers scaled to the
// workload scale. Workloads shrink by the scale factor in both dimension
// and occupancy (degree-preserving), so dividing buffer capacity by the
// same factor preserves the buffer-to-working-set ratio that determines
// tiling behavior.
func (c *Context) Machine() sim.Machine {
	m := sim.DefaultMachine()
	s := int64(c.Opt.Scale)
	m.GlobalBuffer /= s
	if m.GlobalBuffer < 32<<10 {
		m.GlobalBuffer = 32 << 10
	}
	// PE buffers hold a handful of micro tiles regardless of scale; below
	// ~8 KB the hierarchy degenerates into per-tile streaming that no
	// machine would be built with.
	m.PEBuffer /= s
	if m.PEBuffer < 8<<10 {
		m.PEBuffer = 8 << 10
	}
	return m
}

// CPU returns the baseline CPU with its LLC scaled to match.
func (c *Context) CPU() cpuref.CPU {
	cpu := cpuref.DefaultCPU()
	cpu.LLCBytes /= int64(c.Opt.Scale)
	if cpu.LLCBytes < 32<<10 {
		cpu.LLCBytes = 32 << 10
	}
	return cpu
}

// Square returns the memoized S² workload (B = A) for a catalog entry.
// Concurrent callers racing on the same entry block until the single
// preparation completes; a preparation error is memoized alongside the
// workload (the run is aborting on it anyway).
//
// With the trace store on and a summary record stored for the entry, the
// workload is deferred (accel.Deferred): MACCs and the summary accessors
// answer from the record at once, and operands, grids and the reference
// pass are built only when something first needs them, so a figure served
// entirely from the store builds none of them. Otherwise — store off, or
// no usable record — the workload is built here, and with the store on
// its record is written for the next process.
func (c *Context) Square(e workloads.Entry) (*accel.Workload, error) {
	return workload(c, c.spmspm, e.Name, func() (*accel.Workload, error) { return c.square(e) })
}

// workload returns the memoized workload for key in cells (c.spmspm or
// c.grams), building it at most once (singleflight: racing callers block
// on the builder's Once). Every lookup is counted on the context's
// recorder as exp.workload.hits or exp.workload.misses.
func workload[W any](c *Context, cells map[string]*workloadCell[W], key string, build func() (W, error)) (W, error) {
	c.mu.Lock()
	cell := cells[key]
	if cell == nil {
		cell = &workloadCell[W]{}
		cells[key] = cell
	}
	c.mu.Unlock()
	built := false
	cell.once.Do(func() {
		built = true
		cell.w, cell.err = build()
	})
	if built {
		obs.OrNop(c.Opt.Rec).Count("exp.workload.misses", 1)
	} else {
		obs.OrNop(c.Opt.Rec).Count("exp.workload.hits", 1)
	}
	return cell.w, cell.err
}

// square prepares one S² workload, deferred behind its stored summary
// record when the store holds one; called exactly once per entry.
func (c *Context) square(e workloads.Entry) (*accel.Workload, error) {
	spec := e.Spec(c.Opt.Scale)
	c.noteSpec(e.Name, spec)
	build := func() (*accel.Workload, error) { return c.buildSquare(e.Name, spec) }
	key := c.summaryKey(e.Name, spec)
	if sum, ok := c.loadSummary(key); ok {
		return accel.Deferred(e.Name, c.Opt.MicroTile, sum, func() (*accel.Workload, error) {
			w, err := build()
			if err == nil && w.Summary() != sum {
				c.replaceSummary(key, w)
			}
			return w, err
		}), nil
	}
	w, err := build()
	if err == nil {
		c.storeSummary(key, w)
	}
	return w, err
}

// buildSquare generates one S² workload's operand and builds its grids
// and reference counts.
func (c *Context) buildSquare(name string, spec gen.Spec) (*accel.Workload, error) {
	rec := obs.OrNop(c.Opt.Rec)
	span := rec.Begin(obs.CatPhase, "prepare")
	defer rec.End(span)
	c.countBuild()
	op, err := c.operand(spec, rec)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", name, err)
	}
	w, err := accel.NewWorkloadWith(name, op.CSR, op.CSR, c.workloadConfig())
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", name, err)
	}
	return w, nil
}

// countBuild counts one memoized workload actually built — operands,
// grids and reference pass — as exp.workload.builds. Memo lookups stay
// exp.workload.hits and misses; a deferred workload is a miss that builds
// only on first use, and never if nothing needs it.
func (c *Context) countBuild() {
	obs.OrNop(c.Opt.Rec).Count("exp.workload.builds", 1)
}

// noteSpec records the generator spec behind the workload named key: it
// joins the run metadata, and it keys the workload's trace-store entries,
// so a store never replays a schedule recorded for other inputs under the
// same name.
func (c *Context) noteSpec(key string, spec gen.Spec) {
	if blob, err := json.Marshal(spec); err == nil {
		obs.OrNop(c.Opt.Rec).SetMeta("workload."+key+".spec", string(blob))
	}
	c.mu.Lock()
	c.specs[key] = spec
	c.mu.Unlock()
}

// operand materializes one generator spec, through the on-disk operand
// cache unless the run opted out. A cache hit may be mmap-backed; its
// arrays are threaded into the memoized workload (which lives as long as
// the context), so the mapping is deliberately left open for the process
// lifetime rather than closed.
func (c *Context) operand(spec gen.Spec, rec obs.Recorder) (*tensor.Operand, error) {
	if c.Opt.NoOperandCache {
		m, err := spec.Build()
		if err != nil {
			return nil, err
		}
		return &tensor.Operand{CSR: m}, nil
	}
	return gen.CachedBuild(spec, rec)
}

// workloadConfig is the workload pre-processing configuration the context's
// options select (micro tile and reference-kernel parallelism; the grid
// representation is left to its Auto rule).
func (c *Context) workloadConfig() accel.WorkloadConfig {
	return accel.WorkloadConfig{
		MicroTile: c.Opt.MicroTile,
		Parallel:  c.Opt.Parallel,
	}
}

// Shard names one slice of a sharded sweep: piece K of N. The zero value
// (and N <= 1) means unsharded.
type Shard struct {
	K, N int
}

// Enabled reports whether the shard actually restricts anything.
func (s Shard) Enabled() bool { return s.N > 1 }

// String renders the shard as the -shard flag spells it.
func (s Shard) String() string {
	if !s.Enabled() {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.K, s.N)
}

// ParseShard parses a -shard flag value "k/n" with 0 <= k < n. The empty
// string is the unsharded zero value.
func ParseShard(v string) (Shard, error) {
	if v == "" {
		return Shard{}, nil
	}
	var s Shard
	if _, err := fmt.Sscanf(v, "%d/%d", &s.K, &s.N); err != nil {
		return Shard{}, fmt.Errorf("exp: shard %q is not k/n", v)
	}
	if s.N < 1 || s.K < 0 || s.K >= s.N {
		return Shard{}, fmt.Errorf("exp: shard %q needs 0 <= k < n", v)
	}
	return s, nil
}

// Shardable reports whether an experiment partitions cleanly by catalog
// entry (its table is a concatenation of independent per-matrix rows plus
// recomputable geomean rows). The rest either aggregate across entries
// (fig1) or post-sort their rows (fig8), so a sharded run executes them on
// shard 0 only.
func Shardable(id string) bool {
	switch id {
	case "fig6", "fig7", "tab3":
		return true
	}
	return false
}

// shardBlock cuts the shard's contiguous block out of the deterministic
// cell list: rows [K·m/N, (K+1)·m/N). Contiguity is what makes the merge
// a concatenation.
func shardBlock[T any](s Shard, xs []T) []T {
	if !s.Enabled() {
		return xs
	}
	lo := s.K * len(xs) / s.N
	hi := (s.K + 1) * len(xs) / s.N
	return xs[lo:hi]
}

// fig6Entries returns the Fig. 6 matrix set, truncated per MaxWorkloads
// while keeping both pattern groups represented.
func (c *Context) fig6Entries() []workloads.Entry {
	set := workloads.Fig6Set()
	n := c.Opt.MaxWorkloads
	if n <= 0 || n >= len(set) {
		return set
	}
	// Take alternately from the front of each group so small caps still
	// span both sparsity patterns.
	var diamond, unstructured []workloads.Entry
	for _, e := range set {
		if e.Pattern == workloads.Diamond {
			diamond = append(diamond, e)
		} else {
			unstructured = append(unstructured, e)
		}
	}
	var out []workloads.Entry
	for i := 0; len(out) < n; i++ {
		if i < len(diamond) {
			out = append(out, diamond[i])
			if len(out) == n {
				break
			}
		}
		if i < len(unstructured) {
			out = append(out, unstructured[i])
		}
		if i >= len(diamond) && i >= len(unstructured) {
			break
		}
	}
	return out
}
