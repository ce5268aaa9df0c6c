package exp

import (
	"testing"

	"drt/internal/accel"
	"drt/internal/accel/extensor"
	"drt/internal/core"
	"drt/internal/obs"
	"drt/internal/sim"
)

// setSeam turns one of the package's test seams on for the rest of the
// calling test.
func setSeam(t *testing.T, seam *bool) {
	t.Helper()
	*seam = true
	t.Cleanup(func() { *seam = false })
}

// TestTraceCacheTableIdentical is the exp-level acceptance check for the
// record/replay rewrite: every rewired runner must render byte-identical
// tables with the trace cache on (default) and off (the traceCacheOff
// seam), because retiming a recorded schedule is bit-for-bit equal to the
// direct run. The
// ids cover the sweep shapes — machine-knob sweep over shared traces
// (fig12), schedule-shaping sweep with per-config traces (fig16), paired
// strategy runs (fig15), extractor-kind pair from one trace plus static
// fallbacks (sec65), and memoized non-square workloads (fig7).
func TestTraceCacheTableIdentical(t *testing.T) {
	for _, id := range []string{"fig12", "fig16", "fig15", "sec65", "fig7"} {
		id := id
		t.Run(id, func(t *testing.T) {
			render := func(noCache bool) string {
				traceCacheOff = noCache
				defer func() { traceCacheOff = false }()
				c := NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Parallel: 4})
				f, ok := c.Runner(id)
				if !ok {
					t.Fatalf("no runner for %s", id)
				}
				table, err := f()
				if err != nil {
					t.Fatal(err)
				}
				return table.String()
			}
			cached := render(false)
			direct := render(true)
			if cached != direct {
				t.Errorf("trace cache changed table bytes:\n--- cached ---\n%s\n--- direct ---\n%s", cached, direct)
			}
		})
	}
}

// TestTraceCacheKeying pins the cache key's scope: machine speed knobs
// share one trace, while any schedule-shaping change (initial size,
// partition, strategy, hierarchy, buffer size) records its own — two
// different tiling configs never share a trace.
func TestTraceCacheKeying(t *testing.T) {
	c := NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 1})
	e := c.fig6Entries()[0]
	w, err := c.Square(e)
	if err != nil {
		t.Fatal(err)
	}
	base := c.extensorOptions()
	get := func(mutate func(o *extensor.Options)) *accel.Trace {
		opt := base
		if mutate != nil {
			mutate(&opt)
		}
		tr, err := c.extensorTrace(extensor.OPDRT, e.Name, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	same := get(nil)
	if get(nil) != same {
		t.Error("identical config did not share the trace")
	}
	// Machine speed knobs and pricing units share the trace.
	if get(func(o *extensor.Options) { o.Machine.DRAMBandwidth *= 8 }) != same {
		t.Error("bandwidth change must not re-record")
	}
	if get(func(o *extensor.Options) { o.Intersect = sim.SkipBased }) != same {
		t.Error("intersect kind must not re-record")
	}
	// Explicit default initial size is the same schedule as nil.
	if get(func(o *extensor.Options) { o.InitialSize = []int{1, 1, 1} }) != same {
		t.Error("canonical initial size [1,1,1] must share the nil trace")
	}
	// Schedule-shaping knobs must each get their own trace.
	distinct := map[*accel.Trace]string{same: "base"}
	for name, mut := range map[string]func(o *extensor.Options){
		"initial-size": func(o *extensor.Options) { o.InitialSize = []int{1, 4, 1} },
		"partition":    func(o *extensor.Options) { o.Partition = sim.Partition{AFrac: 0.05, BFrac: 0.50, OFrac: 0.45} },
		"strategy":     func(o *extensor.Options) { o.Strategy = core.Alternating },
		"single-level": func(o *extensor.Options) { o.SingleLevel = true },
		"global-buf":   func(o *extensor.Options) { o.Machine.GlobalBuffer *= 2 },
	} {
		tr := get(mut)
		if prev, dup := distinct[tr]; dup {
			t.Errorf("%s: config change reused the %s config's trace", name, prev)
		}
		distinct[tr] = name
	}
}

// TestTraceCacheCounters pins the batched-sweep accounting: a Fig. 12 run
// over N workloads groups each workload's 12 (bandwidth, unit) points
// into one batch, which is itself the proof of reuse — the schedule is
// recorded immediately (misses) and priced in a single streaming pass
// (retime.batch_size sums to 12N), with no first-use direct runs and no
// per-point cache hits.
func TestTraceCacheCounters(t *testing.T) {
	rec := obs.NewCollector()
	c := NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Rec: rec})
	if _, err := c.Fig12(); err != nil {
		t.Fatal(err)
	}
	n := int64(len(c.fig6Entries()))
	if got := rec.Counter("exp.tracecache.direct"); got != 0 {
		t.Errorf("direct = %d, want 0 (a batch is proof of reuse; no first-use direct run)", got)
	}
	if got := rec.Counter("exp.tracecache.misses"); got != n {
		t.Errorf("misses = %d, want %d (one recording per workload, on the batch request)", got, n)
	}
	if got := rec.Counter("exp.tracecache.hits"); got != 0 {
		t.Errorf("hits = %d, want 0 (the whole sweep prices in one pass per workload)", got)
	}
	if got := rec.Counter("retime.batch_size"); got != 12*n {
		t.Errorf("retime.batch_size = %d, want %d (all 12 points batched per workload)", got, 12*n)
	}
}

// TestTraceCacheCountersUnbatched pins that the retimeBatchOff seam
// restores the per-point record-on-second-use accounting Fig. 12 had
// before batching: first cell direct, second records, the remaining
// 12N - 2N replay.
func TestTraceCacheCountersUnbatched(t *testing.T) {
	setSeam(t, &retimeBatchOff)
	rec := obs.NewCollector()
	c := NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Rec: rec})
	if _, err := c.Fig12(); err != nil {
		t.Fatal(err)
	}
	n := int64(len(c.fig6Entries()))
	if got := rec.Counter("exp.tracecache.direct"); got != n {
		t.Errorf("direct = %d, want %d (first use runs the engine, no capture)", got, n)
	}
	if got := rec.Counter("exp.tracecache.misses"); got != n {
		t.Errorf("misses = %d, want %d (one recording per workload, on second use)", got, n)
	}
	if got := rec.Counter("exp.tracecache.hits"); got != 12*n-2*n {
		t.Errorf("hits = %d, want %d", got, 12*n-2*n)
	}
	if got := rec.Counter("retime.batch_size"); got != 0 {
		t.Errorf("retime.batch_size = %d, want 0 (batching disabled)", got)
	}
}

// TestFig12BatchIdentical pins the batched sweep's bit-identity: the
// rendered Fig. 12 table must not depend on whether points are priced in
// one streaming pass per trace or retimed one configuration at a time.
func TestFig12BatchIdentical(t *testing.T) {
	render := func(opt Options) string {
		tb, err := NewContext(opt).Fig12()
		if err != nil {
			t.Fatal(err)
		}
		return tb.String()
	}
	base := Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Parallel: 4}
	batched := render(base)
	setSeam(t, &retimeBatchOff)
	if unbatched := render(base); batched != unbatched {
		t.Errorf("batched retiming changed the table:\n--- batched ---\n%s\n--- unbatched ---\n%s", batched, unbatched)
	}
}

// TestTraceCacheOneShotCellsStayDirect pins the policy that fixed the
// Fig. 14 regression: a sweep whose every cell is a distinct configuration
// must never record — first use is the only use, so the cache must not pay
// capture overhead or retain traces for it.
func TestTraceCacheOneShotCellsStayDirect(t *testing.T) {
	rec := obs.NewCollector()
	c := NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Rec: rec})
	e := c.fig6Entries()[0]
	w, err := c.Square(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, startJ := range []int{2, 4, 8} { // three one-shot configurations
		opt := c.extensorOptions()
		opt.InitialSize = []int{1, startJ, 1}
		if _, err := c.runExtensor(extensor.OPDRT, e.Name, w, opt); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Counter("exp.tracecache.direct"); got != 3 {
		t.Errorf("direct = %d, want 3", got)
	}
	if got := rec.Counter("exp.tracecache.misses"); got != 0 {
		t.Errorf("misses = %d, want 0 (one-shot cells must not record)", got)
	}
	if c.traceBytes != 0 || len(c.traces) != 0 {
		t.Errorf("one-shot cells retained %d trace bytes in %d cells", c.traceBytes, len(c.traces))
	}
}

// TestTraceCacheEviction pins the retention budget: with a budget smaller
// than two traces, recording a second schedule evicts the
// least-recently-used one, and a later request for the evicted schedule
// re-records it rather than failing.
func TestTraceCacheEviction(t *testing.T) {
	rec := obs.NewCollector()
	c := NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Rec: rec})
	c.traceBudget = 1
	e := c.fig6Entries()[0]
	w, err := c.Square(e)
	if err != nil {
		t.Fatal(err)
	}
	optA := c.extensorOptions()
	optB := c.extensorOptions()
	optB.InitialSize = []int{1, 4, 1}
	trA1, err := c.extensorTrace(extensor.OPDRT, e.Name, w, optA)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.traces) != 1 {
		t.Fatalf("retained %d traces, want 1 (fresh trace survives its own accounting)", len(c.traces))
	}
	if _, err := c.extensorTrace(extensor.OPDRT, e.Name, w, optB); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("exp.tracecache.evictions"); got != 1 {
		t.Errorf("evictions = %d, want 1 (budget of 1 byte holds one trace)", got)
	}
	if len(c.traces) != 1 {
		t.Errorf("retained %d traces, want 1 under a 1-byte budget", len(c.traces))
	}
	trA2, err := c.extensorTrace(extensor.OPDRT, e.Name, w, optA)
	if err != nil {
		t.Fatal(err)
	}
	if trA2 == trA1 {
		t.Error("evicted trace was still served from cache")
	}
	if got := rec.Counter("exp.tracecache.misses"); got != 3 {
		t.Errorf("misses = %d, want 3 (A, B, re-recorded A)", got)
	}
	// An unlimited budget never evicts.
	c2 := NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Rec: obs.NewCollector()})
	c2.traceBudget = -1
	if _, err := c2.extensorTrace(extensor.OPDRT, e.Name, w, optA); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.extensorTrace(extensor.OPDRT, e.Name, w, optB); err != nil {
		t.Fatal(err)
	}
	if len(c2.traces) != 2 {
		t.Errorf("negative budget evicted: %d traces retained, want 2", len(c2.traces))
	}
}

// TestWorkloadMemoCounters pins the non-square workload memoization:
// running Fig. 7 twice builds each tall-skinny workload once and serves
// every later lookup from cache, rendering the same bytes.
func TestWorkloadMemoCounters(t *testing.T) {
	rec := obs.NewCollector()
	c := NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Rec: rec})
	first, err := c.Fig07()
	if err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := rec.Counter("exp.workload.misses")
	second, err := c.Fig07()
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("exp.workload.misses"); got != missesAfterFirst {
		t.Errorf("second Fig07 rebuilt workloads: misses %d -> %d", missesAfterFirst, got)
	}
	if rec.Counter("exp.workload.hits") == 0 {
		t.Error("second Fig07 recorded no cache hits")
	}
	if first.String() != second.String() {
		t.Error("memoized rerun changed the table")
	}
}
