package exp

import (
	"sync"

	"drt/internal/accel"
	"drt/internal/accel/extensor"
	"drt/internal/core"
	"drt/internal/obs"
	"drt/internal/sim"
)

// The trace cache memoizes recorded engine schedules (accel.Trace) across
// sweep cells, following the singleflight pattern of the Square workload
// cache: a cell is recorded exactly once — concurrent runners racing on
// the same configuration block on its Once — and every later cell retimes
// it under its own machine/intersect/extractor knobs. The key carries
// everything that shapes a schedule; everything absent from the key is
// machine-invariant (pinned by the replay equality tests in accel and
// extensor) and safe to sweep over a shared trace.
//
// Two policies keep the cache from costing more than it saves — the
// Fig. 14/Fig. 17 regressions of the 2026-08-06_3 snapshot were exactly
// that failure mode (see DESIGN.md "Trace record/replay"):
//
//   - Record on second use. A direct run captures its schedule too, one
//     task at a time, so recording costs about what a direct run does;
//     what it adds is retention — the whole trace stays live. A
//     configuration seen for the first time therefore runs direct and is
//     only recorded when a second request proves the schedule is actually
//     reused. One-shot sweep grids never retain traces (Fig. 14's cells
//     in figbench's fig14-cold would hold 22 MB of them against a 32 MB
//     peak RSS); genuinely shared configurations (Fig. 12's 12 machine
//     points per workload) pay one extra direct run and then replay as
//     before.
//   - Retention budget. Recorded traces are evicted least-recently-used
//     once their estimated bytes exceed the context's budget, so a
//     long-lived Context (the shared benchmark context, a future drtserve
//     process) cannot grow an unbounded live heap that taxes every later
//     GC cycle.

// defaultTraceBudget bounds a new context's retained trace bytes. 256 MiB
// holds hundreds of scaled-workload schedules while keeping the benchmark
// suite's shared context GC-light.
const defaultTraceBudget = 256 << 20

// traceKey identifies one recorded schedule: the workload (whose name is
// unique per prepared workload within a Context — Scale, MicroTile and
// Grid are Context-wide), the variant and every tiling-configuration knob
// of extensor.Options.
type traceKey struct {
	workload string
	variant  extensor.Variant
	part     sim.Partition
	strategy core.Strategy
	init     [3]int
	single   bool
	hasShape bool
	shape    [3]int
	gb, pb   int64 // buffer sizes feed the capacity split, which shapes tiles
}

// traceCell is one memoized schedule recording. bytes and lastUse are
// guarded by the context mutex; bytes stays zero until the recording
// completes (in-flight cells are never evicted).
type traceCell struct {
	once    sync.Once
	tr      *accel.Trace
	err     error
	bytes   int64
	lastUse int64
}

// canonSize canonicalizes a per-dimension size vector the way the core
// growth algorithm reads it: a nil vector and any entry ≤ 0 mean 1.
func canonSize(s []int) [3]int {
	out := [3]int{1, 1, 1}
	for d := 0; d < 3 && d < len(s); d++ {
		if s[d] > 0 {
			out[d] = s[d]
		}
	}
	return out
}

// traceCacheOff and retimeBatchOff route every cell through the direct
// engine run and every sweep point through its own replay, respectively;
// tests flip them to check that neither the trace cache nor batching
// changes a table.
var traceCacheOff, retimeBatchOff bool

// traceEligible reports whether a run can be served from the trace cache:
// the run must not carry per-run instrumentation (a recorder wants the
// full engine's histograms), and the variant's schedule must be machine-
// invariant — OPDRT always is, the S-U-C variants only under a pinned
// StaticShape (their shape sweep picks a winner by cycle count).
func (c *Context) traceEligible(v extensor.Variant, opt extensor.Options) bool {
	if traceCacheOff || opt.Rec != nil {
		return false
	}
	return v == extensor.OPDRT || opt.StaticShape != nil
}

// runExtensor is the runners' extensor.Run: eligible cells go through the
// record-on-second-use trace cache — the first request for a (workload,
// tiling config) runs the engine directly, the second records the schedule
// once, and every later request retimes it, bit-for-bit identical to the
// direct run either way, so tables do not depend on the cache — while
// ineligible cells fall through to extensor.Run unchanged. wkey names the
// prepared workload (w's identity within this Context).
//
// With a persistent trace store attached the first-use-direct policy is
// retired: persistence is itself the proof of reuse (the next process —
// or the next shard — replays what this one records), so every eligible
// cell goes straight to the cached trace, loaded from disk when an
// earlier process recorded it (see store.go).
func (c *Context) runExtensor(v extensor.Variant, wkey string, w *accel.Workload, opt extensor.Options) (sim.Result, error) {
	if !c.traceEligible(v, opt) {
		return extensor.Run(v, w, opt)
	}
	if !c.store.Enabled() {
		key := c.traceKeyFor(v, wkey, opt)
		c.mu.Lock()
		if cell := c.traces[key]; cell == nil && !c.traceSeen[key] {
			// First use: prove reuse before paying the capture pass.
			c.traceSeen[key] = true
			c.mu.Unlock()
			obs.OrNop(c.Opt.Rec).Count("exp.tracecache.direct", 1)
			return extensor.Run(v, w, opt)
		}
		c.mu.Unlock()
	}
	tr, err := c.extensorTrace(v, wkey, w, opt)
	if err != nil {
		return sim.Result{}, err
	}
	return extensor.Retime(v, tr, opt), nil
}

// runExtensorBatch prices every configuration in opts against one shared
// recorded schedule in a single streaming pass (extensor.RetimeBatch).
// Every opt must map to the same traceKey — the caller (runPoints) groups
// by key — so the batch differs only in machine/intersect/extractor
// knobs, exactly the machine-invariant axis a trace is valid under.
// Results are bit-identical to calling runExtensor per configuration.
//
// Batching also retires the record-on-second-use dance for the group: a
// K ≥ 2 request is itself the proof of reuse the policy waits for, so the
// key is marked seen and the schedule recorded immediately instead of
// paying K direct runs first. Singleton groups and ineligible cells fall
// back to runExtensor unchanged, preserving the one-shot-grid policy.
func (c *Context) runExtensorBatch(v extensor.Variant, wkey string, w *accel.Workload, opts []extensor.Options) ([]sim.Result, error) {
	if len(opts) == 1 {
		r, err := c.runExtensor(v, wkey, w, opts[0])
		if err != nil {
			return nil, err
		}
		return []sim.Result{r}, nil
	}
	if retimeBatchOff || !c.traceEligible(v, opts[0]) {
		out := make([]sim.Result, len(opts))
		for i, o := range opts {
			r, err := c.runExtensor(v, wkey, w, o)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	if !c.store.Enabled() {
		key := c.traceKeyFor(v, wkey, opts[0])
		c.mu.Lock()
		c.traceSeen[key] = true
		c.mu.Unlock()
	}
	tr, err := c.extensorTrace(v, wkey, w, opts[0])
	if err != nil {
		return nil, err
	}
	obs.OrNop(c.Opt.Rec).Count("retime.batch_size", int64(len(opts)))
	return extensor.RetimeBatch(v, tr, opts), nil
}

// RunExtensor is the exported runExtensor for CLI callers (drtsim routes
// its extensor variants through it so -trace-store serves them too): run
// variant v of the prepared workload under opt, through the two-tier
// trace cache when the cell is eligible. wkey must name the workload
// uniquely within this Context.
func (c *Context) RunExtensor(v extensor.Variant, wkey string, w *accel.Workload, opt extensor.Options) (sim.Result, error) {
	return c.runExtensor(v, wkey, w, opt)
}

// traceKeyFor builds the cache key for (variant, workload, tiling config).
func (c *Context) traceKeyFor(v extensor.Variant, wkey string, opt extensor.Options) traceKey {
	key := traceKey{
		workload: wkey,
		variant:  v,
		part:     opt.Partition,
		strategy: opt.Strategy,
		init:     canonSize(opt.InitialSize),
		single:   opt.SingleLevel,
		gb:       opt.Machine.GlobalBuffer,
		pb:       opt.Machine.PEBuffer,
	}
	if opt.StaticShape != nil {
		key.hasShape = true
		key.shape = canonSize(opt.StaticShape)
	}
	return key
}

// extensorTrace returns the memoized recorded schedule for (variant,
// workload, tiling config), recording it on first use.
func (c *Context) extensorTrace(v extensor.Variant, wkey string, w *accel.Workload, opt extensor.Options) (*accel.Trace, error) {
	key := c.traceKeyFor(v, wkey, opt)
	c.mu.Lock()
	cell := c.traces[key]
	if cell == nil {
		cell = &traceCell{}
		c.traces[key] = cell
	}
	c.useTick++
	cell.lastUse = c.useTick
	c.mu.Unlock()
	recorded := false
	cell.once.Do(func() {
		recorded = true
		// Disk tier first: a schedule some earlier process recorded loads
		// in milliseconds; only a store miss pays the capture pass.
		if tr, ok := c.loadStored(key); ok {
			cell.tr = tr
			return
		}
		ro := opt
		ro.Rec = nil // the recording pass is shared; per-run recorders are ineligible
		cell.tr, cell.err = extensor.Record(v, w, ro)
		if cell.err == nil {
			c.storeTrace(key, cell.tr)
		}
	})
	rec := obs.OrNop(c.Opt.Rec)
	if recorded {
		rec.Count("exp.tracecache.misses", 1)
		if cell.err == nil {
			c.accountTrace(key, cell)
		}
	} else {
		rec.Count("exp.tracecache.hits", 1)
	}
	return cell.tr, cell.err
}

// accountTrace charges a freshly recorded trace against the retention
// budget, evicting least-recently-used completed cells until the total
// fits. The cell just recorded is never evicted in its own accounting
// pass (its requester holds the pointer anyway).
func (c *Context) accountTrace(key traceKey, cell *traceCell) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell.bytes = cell.tr.Bytes()
	c.traceBytes += cell.bytes
	if c.traceBudget < 0 {
		return
	}
	for c.traceBytes > c.traceBudget {
		var victimKey traceKey
		var victim *traceCell
		for k, tc := range c.traces {
			if tc == cell || tc.bytes == 0 { // never the fresh cell or in-flight ones
				continue
			}
			if victim == nil || tc.lastUse < victim.lastUse {
				victim, victimKey = tc, k
			}
		}
		if victim == nil {
			return // nothing evictable; the fresh trace alone exceeds the budget
		}
		c.traceBytes -= victim.bytes
		delete(c.traces, victimKey)
		obs.OrNop(c.Opt.Rec).Count("exp.tracecache.evictions", 1)
	}
}
