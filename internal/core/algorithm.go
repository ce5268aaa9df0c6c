package core

import (
	"fmt"
	"sort"
)

// builder holds per-BuildTask scratch state.
type builder struct {
	k      *Kernel
	cfg    *Config
	window []Range

	base  []int
	sizes []int
	// frozen[d] is true when dimension d is mid-flight in an outer loop
	// level: its base and size must not change during this build.
	frozen []bool
	// constrained[d] is Algorithm 1's constraints array: once set, growth
	// along d stops, and later tensors co-tile to the current size.
	constrained []bool
	// cap[d] limits sizes[d] during fallback retries (Alg. 1 line 13).
	cap []int

	rebuilt []bool // per operand
	probes  int
	scans   int64
	overflw bool

	// order caches the stationarity ordering of the operands.
	order []int
	// scratch holds each operand's reusable range buffer for opRanges,
	// indexed like boxes.
	scratch [][]Range

	// boxes memoizes View box queries per operand (see query); hit/miss
	// totals feed the extract.boxcache obs counters via ExtractStats.
	boxes     []opBoxCache
	boxHits   int64
	boxMisses int64
	// logs is each operand's sweep log (see step); hit/miss totals feed
	// the extract.steplog obs counters via ExtractStats.
	logs       []stepLog
	stepHits   int64
	stepMisses int64
	// task is the pooled emit target: emit refills its slices in place, so
	// the Task returned by build aliases this scratch and is only valid
	// until the next build (retainers must Clone).
	task Task
}

// boxMetric indexes the three View queries a box cache entry can hold.
const (
	metricFootprint = iota
	metricNNZ
	metricTiles
	numMetrics
)

const (
	// boxCacheDims bounds the operand rank the box cache and the sweep
	// log handle; higher-rank operands bypass both.
	boxCacheDims = 3
	// boxCacheWays is the per-operand associativity. Between evictions the
	// grow/retry loop revisits only a handful of distinct boxes — the
	// current box, the pre-grow box, and the fallback retry ladder — so a
	// tiny round-robin set captures nearly all reuse.
	boxCacheWays = 4
)

// boxEntry caches View query results for one coordinate box of one
// operand. Metrics fill lazily: a grow sequence probes a box's footprint
// long before (at emit) it needs the same box's NNZ and tile count.
// n is the cached box's rank (0 = unused slot).
type boxEntry struct {
	box [boxCacheDims]Range
	n   int
	has [numMetrics]bool
	val [numMetrics]int64
}

// opBoxCache is one operand's round-robin box cache.
type opBoxCache struct {
	ways [boxCacheWays]boxEntry
	next int
}

// query answers one View metric for operand oi over rs, memoized in the
// per-operand box cache. Boxes are absolute grid coordinates and views
// are immutable, so entries never invalidate — across builds, windows,
// and Resets alike. Caching changes neither the probe/scan accounting
// nor any query result, so cached and uncached runs emit byte-identical
// task streams.
func (b *builder) query(oi int, rs []Range, metric int) int64 {
	op := &b.k.Operands[oi]
	if len(rs) > boxCacheDims {
		return rawQuery(op, rs, metric)
	}
	c := &b.boxes[oi]
	n := len(rs)
	// The key compare is hand-rolled (early-exit int compares against rs
	// itself) rather than an array equality: this scan runs on every
	// growth probe, so avoiding the upfront key copy and the runtime
	// memequal call is a measurable share of extraction time.
scan:
	for w := range c.ways {
		e := &c.ways[w]
		if e.n != n {
			continue
		}
		for i := 0; i < n; i++ {
			if e.box[i] != rs[i] {
				continue scan
			}
		}
		if e.has[metric] {
			b.boxHits++
			return e.val[metric]
		}
		b.boxMisses++
		v := rawQuery(op, rs, metric)
		e.has[metric] = true
		e.val[metric] = v
		return v
	}
	b.boxMisses++
	e := &c.ways[c.next]
	c.next = (c.next + 1) % boxCacheWays
	copy(e.box[:], rs)
	e.n = n
	e.has = [numMetrics]bool{}
	v := rawQuery(op, rs, metric)
	e.has[metric] = true
	e.val[metric] = v
	return v
}

// rawQuery dispatches an uncached View query.
func rawQuery(op *Operand, rs []Range, metric int) int64 {
	switch metric {
	case metricFootprint:
		return op.View.Footprint(rs)
	case metricNNZ:
		return op.View.NNZ(rs)
	default:
		return op.View.Tiles(rs)
	}
}

// maxFallbackRetries bounds the fallback subdivision loop; each retry
// halves one dimension, so log2(extent) retries suffice per dimension.
const maxFallbackRetries = 64

// stationarityOrder returns operand indices sorted most-stationary first:
// ascending by the deepest loop position among each operand's dimensions
// ("a tensor is less stationary than another if it is indexed by a
// faster-changing index", Sec. 2.1).
func stationarityOrder(k *Kernel, loopOrder []int) []int {
	pos := make([]int, k.NDims())
	for p, d := range loopOrder {
		pos[d] = p
	}
	depth := func(op *Operand) int {
		dm := 0
		for _, d := range op.Dims {
			if pos[d] > dm {
				dm = pos[d]
			}
		}
		return dm
	}
	idx := make([]int, len(k.Operands))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return depth(&k.Operands[idx[a]]) < depth(&k.Operands[idx[b]])
	})
	return idx
}

// opRanges materializes operand oi's region for the current base/sizes,
// clamped to the window. The returned slice is per-operand scratch reused
// across calls — callers must not retain it past the next query.
func (b *builder) opRanges(oi int) []Range {
	rs := b.scratch[oi]
	for i, d := range b.k.Operands[oi].Dims {
		hi := b.base[d] + b.sizes[d]
		if hi > b.window[d].Hi {
			hi = b.window[d].Hi
		}
		rs[i] = Range{b.base[d], hi}
	}
	return rs
}

// maxSize returns the largest admissible size for dimension d under the
// window edge and any fallback cap.
func (b *builder) maxSize(d int) int {
	m := b.window[d].Hi - b.base[d]
	if b.cap[d] < m {
		m = b.cap[d]
	}
	if m < 1 {
		m = 1
	}
	return m
}

// tryToGrow attempts one growth step of dimension d for operand oi
// (Alg. 2 line 13). It returns false — and marks d constrained — when the
// step would exceed the operand's partition or the dimension cannot grow
// further.
func (b *builder) tryToGrow(oi, d, step int) bool {
	op := &b.k.Operands[oi]
	limit := b.maxSize(d)
	if b.sizes[d] >= limit {
		b.constrained[d] = true
		return false
	}
	next := b.sizes[d] + step
	if next > limit {
		next = limit
	}
	before := b.query(oi, b.opRanges(oi), metricTiles)
	old := b.sizes[d]
	b.sizes[d] = next
	rs := b.opRanges(oi)
	b.probes++
	b.scans += b.query(oi, rs, metricTiles) - before // newly scanned micro-tile metadata
	if b.query(oi, rs, metricFootprint) > op.Capacity {
		b.sizes[d] = old // reverse the operation (buffer overflow)
		b.constrained[d] = true
		return false
	}
	return true
}

// growable reports whether dimension d may still grow for this build.
func (b *builder) growable(d int) bool {
	return !b.frozen[d] && !b.constrained[d]
}

// growMax expands dimension d to the largest admissible size whose
// footprint fits op's partition — the same stopping point as exhaustive
// n=1 growth (footprint is monotone in tile size) found by binary search.
// The dimension is constrained afterwards, as a completed growth pass is.
func (b *builder) growMax(oi, d int) {
	op := &b.k.Operands[oi]
	limit := b.maxSize(d)
	defer func() { b.constrained[d] = true }()
	if b.sizes[d] >= limit {
		return
	}
	startTiles := b.query(oi, b.opRanges(oi), metricTiles)
	fits := func(sz int) bool {
		old := b.sizes[d]
		b.sizes[d] = sz
		fp := b.query(oi, b.opRanges(oi), metricFootprint)
		b.sizes[d] = old
		b.probes++
		return fp <= op.Capacity
	}
	lo, hi := b.sizes[d], limit
	switch {
	case fits(hi):
		b.sizes[d] = hi
	case !fits(lo):
		// The tile does not fit even at the current size (overflow tile);
		// keep it, matching tryToGrow's refusal to grow further.
	default:
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if fits(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		b.sizes[d] = lo
	}
	// The Aggregate unit still scans every stored micro tile the final
	// macro tile covers, regardless of how the shape search probed.
	b.scans += b.query(oi, b.opRanges(oi), metricTiles) - startTiles
}

// growDims is Algorithm 2: expand operand oi's dimensions per the
// configured strategy until all are constrained.
func (b *builder) growDims(oi int) {
	op := &b.k.Operands[oi]
	step := b.cfg.GrowStep
	if step < 1 {
		step = 1
	}
	switch b.cfg.Strategy {
	case Static:
		// No growth: S-U-C baseline.
	case GreedyContractedFirst:
		// Contracted dimensions first, each exhausted in a single pass,
		// then uncontracted (Sec. 3.2 default). Exhausting a dimension
		// with unit steps stops at the largest size whose footprint fits;
		// growMax binary-searches for that same size directly (footprint
		// is monotone in tile size), so the outcome is identical to the
		// paper's n=1 loop at a fraction of the probe count.
		for _, wantContracted := range []bool{true, false} {
			for _, d := range op.Dims {
				if b.k.Contracted[d] != wantContracted {
					continue
				}
				if b.growable(d) {
					b.growMax(oi, d)
				}
			}
		}
	case Alternating:
		// Round-robin one step per dimension to keep tiles square-ish.
		for {
			grew := false
			for _, d := range op.Dims {
				if b.growable(d) && b.tryToGrow(oi, d, step) {
					grew = true
				}
			}
			if !grew {
				break
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown strategy %v", b.cfg.Strategy))
	}
}

// loadTile is Algorithm 1's loadNextTile: verify operand oi's tile fits
// its partition at the current sizes, shrinking growable dimensions and,
// if that does not suffice, requesting a fallback subdivision of an
// already-constrained dimension (returned as retryDim >= 0).
func (b *builder) loadTile(oi int) (retryDim int) {
	op := &b.k.Operands[oi]
	if b.query(oi, b.opRanges(oi), metricFootprint) <= op.Capacity {
		return -1
	}
	// Shrink this operand's still-growable dimensions to 1.
	for _, d := range op.Dims {
		if b.growable(d) {
			b.sizes[d] = 1
		}
	}
	if b.query(oi, b.opRanges(oi), metricFootprint) <= op.Capacity {
		return -1
	}
	// Fallback path (Alg. 1 line 13): subdivide the largest dimension of
	// this tensor that an earlier tensor constrained in this build. Frozen
	// dimensions belong to outer, mid-flight loops and must not change.
	best, bestSize := -1, 1
	for _, d := range op.Dims {
		if b.constrained[d] && !b.frozen[d] && b.sizes[d] > bestSize {
			best, bestSize = d, b.sizes[d]
		}
	}
	if best >= 0 {
		return best
	}
	// Even a single micro-tile slab exceeds the partition: the tile will
	// be streamed (counted, not dropped).
	b.overflw = true
	return -1
}

// stepLogOff makes every sweep-log lookup miss; tests flip it to check
// that replay changes no task.
var stepLogOff bool

// stepDim is the state a step reads of one of its operand's dimensions.
type stepDim struct {
	base, size, cap, hi int
	frozen, constrained bool
}

// stepEntry logs one step of one operand: the per-dim state it started
// from, what it wrote, and — filled lazily by emit — the View metrics of
// the box it settled on. used marks a slot that holds a logged step.
type stepEntry struct {
	key      [boxCacheDims]stepDim
	sizes    [boxCacheDims]int
	val      [numMetrics]int64
	scans    int64
	probes   int
	retry    int
	used     bool
	overflow bool
	has      bool
}

// stepLog is one operand's sweep log: one entry per build in the
// operand's current sweep, at being the current build's position (see
// Enumerator.plan). Every attempt of a build, fallback retries included,
// steps through the same entry. The log only grows to the operand's
// longest sweep and is reused across Reset.
type stepLog struct {
	at      int
	entries []stepEntry
}

// slot returns operand oi's log entry at the log's current position, or
// nil when the operand's steps are not logged: above the logged rank, or
// under the Static strategy. A Static step never grows its tiles, so it
// is a footprint check the box cache already serves, and logging it
// costs memory for nothing: Fig. 6's S-U-C shape sweeps build many
// short-lived static enumerators.
func (b *builder) slot(oi int) *stepEntry {
	if b.cfg.Strategy == Static || len(b.k.Operands[oi].Dims) > boxCacheDims {
		return nil
	}
	l := &b.logs[oi]
	for len(l.entries) <= l.at {
		l.entries = append(l.entries, stepEntry{})
	}
	return &l.entries[l.at]
}

// step is Algorithm 1's per-tensor body — loadTile, then growDims unless
// a fallback retry is requested — run through operand oi's sweep log.
// For each of the operand's dims a step reads only the stepDim fields
// (plus the immutable view, capacity and strategy) and writes only those
// dims' sizes, the probe/scan totals, the overflow flag and its retry
// dim: it is a pure function of the key. So when the entry at this sweep
// position was logged from an equal key, replaying its outcome is exact;
// otherwise the step runs and overwrites the entry. The position is only
// a hint for where an equal key is likely to be.
func (b *builder) step(oi int) (retryDim int) {
	dims := b.k.Operands[oi].Dims
	e := b.slot(oi)
	if e == nil {
		return b.runStep(oi)
	}
	if !stepLogOff && e.matches(b, dims) {
		b.stepHits++
		for i, d := range dims {
			b.sizes[d] = e.sizes[i]
		}
		b.probes += e.probes
		b.scans += e.scans
		b.overflw = b.overflw || e.overflow
		return e.retry
	}
	b.stepMisses++
	for i, d := range dims {
		e.key[i] = stepDim{b.base[d], b.sizes[d], b.cap[d], b.window[d].Hi, b.frozen[d], b.constrained[d]}
	}
	e.used = true
	probes, scans, overflw := b.probes, b.scans, b.overflw
	b.overflw = false
	e.retry = b.runStep(oi)
	for i, d := range dims {
		e.sizes[i] = b.sizes[d]
	}
	e.probes, e.scans = b.probes-probes, b.scans-scans
	e.overflow = b.overflw
	e.has = false
	b.overflw = b.overflw || overflw
	return e.retry
}

// matches reports whether the entry was logged from the current state of
// dims. Like query's, the compare is hand-rolled: a struct == goes
// through a generated equality function on this hot path.
func (e *stepEntry) matches(b *builder, dims []int) bool {
	if !e.used {
		return false
	}
	for i, d := range dims {
		k := &e.key[i]
		if k.base != b.base[d] || k.size != b.sizes[d] || k.cap != b.cap[d] || k.hi != b.window[d].Hi ||
			k.frozen != b.frozen[d] || k.constrained != b.constrained[d] {
			return false
		}
	}
	return true
}

// holds reports whether the box the entry's step settled on is dims'
// current box.
func (e *stepEntry) holds(b *builder, dims []int) bool {
	if !e.used {
		return false
	}
	for i, d := range dims {
		if e.key[i].base != b.base[d] || e.sizes[i] != b.sizes[d] || e.key[i].hi != b.window[d].Hi {
			return false
		}
	}
	return true
}

// runStep runs one step without the log.
func (b *builder) runStep(oi int) (retryDim int) {
	if rd := b.loadTile(oi); rd >= 0 {
		return rd
	}
	b.growDims(oi)
	return -1
}

// BuildTask runs Algorithm 1 for one Einsum task. base gives each
// dimension's origin (grid coordinates), sizes the incoming per-dimension
// tile sizes, frozen the dimensions pinned by outer loop levels, and
// rebuild the operands whose tiles are to be (re)built. sizes is updated in
// place with the chosen tile shape.
func BuildTask(k *Kernel, cfg *Config, base, sizes []int, frozen []bool, rebuild []bool) (Task, error) {
	if err := k.Validate(); err != nil {
		return Task{}, err
	}
	b := newBuilder(k, cfg)
	return b.build(base, sizes, frozen, rebuild)
}

// newBuilder allocates the reusable Algorithm-1 state for a kernel/config
// pair; the Enumerator keeps one across its whole traversal so per-task
// scratch is amortized.
func newBuilder(k *Kernel, cfg *Config) *builder {
	n := k.NDims()
	window := cfg.Window
	if window == nil {
		window = make([]Range, n)
		for d := range window {
			window[d] = Range{0, k.Extent[d]}
		}
	}
	b := &builder{
		k: k, cfg: cfg, window: window,
		constrained: make([]bool, n),
		cap:         make([]int, n),
		order:       stationarityOrder(k, cfg.LoopOrder),
		scratch:     make([][]Range, len(k.Operands)),
		boxes:       make([]opBoxCache, len(k.Operands)),
		logs:        make([]stepLog, len(k.Operands)),
	}
	for oi := range k.Operands {
		b.scratch[oi] = make([]Range, len(k.Operands[oi].Dims))
	}
	return b
}

// build runs Algorithm 1 once; see BuildTask for the contract.
func (b *builder) build(base, sizes []int, frozen []bool, rebuild []bool) (Task, error) {
	n := b.k.NDims()
	cfg := b.cfg
	window := b.window
	b.base, b.sizes, b.frozen, b.rebuilt = base, sizes, frozen, rebuild
	order := b.order

	for retry := 0; ; retry++ {
		if retry > maxFallbackRetries {
			return Task{}, fmt.Errorf("core: fallback did not converge after %d retries", retry)
		}
		// (Re)initialize sizes of free dimensions (Alg. 1 line 5).
		for d := 0; d < n; d++ {
			b.constrained[d] = b.frozen[d]
			if b.frozen[d] {
				continue
			}
			init := 1
			if cfg.InitialSize != nil && cfg.InitialSize[d] > 0 {
				init = cfg.InitialSize[d]
			}
			if retry == 0 {
				b.cap[d] = window[d].Hi - window[d].Lo
				if b.cap[d] < 1 {
					b.cap[d] = 1
				}
			}
			if m := b.maxSize(d); init > m {
				init = m
			}
			b.sizes[d] = init
		}
		b.probes, b.scans, b.overflw = 0, 0, false

		retryDim := -1
		for _, oi := range order {
			if !rebuild[oi] {
				continue
			}
			if rd := b.step(oi); rd >= 0 {
				retryDim = rd
				break
			}
			// Growing a dimension becomes a constraint on later tensors
			// (co-tiling, Alg. 1 line 7 comment).
			for _, d := range b.k.Operands[oi].Dims {
				b.constrained[d] = true
			}
		}
		if retryDim < 0 {
			break
		}
		b.cap[retryDim] = b.sizes[retryDim] / 2
		if b.cap[retryDim] < 1 {
			b.cap[retryDim] = 1
		}
	}
	return b.emit(), nil
}

// emit materializes the Task for the final sizes into the builder's
// pooled scratch: steady-state extraction allocates nothing. The
// returned Task's slices alias that scratch and stay valid only until
// the next build on this builder.
func (b *builder) emit() Task {
	n := b.k.NDims()
	nops := len(b.k.Operands)
	t := &b.task
	t.Ranges = growRanges(t.Ranges, n)
	t.OpFootprint = growI64(t.OpFootprint, nops)
	t.OpNNZ = growI64(t.OpNNZ, nops)
	t.OpTiles = growI64(t.OpTiles, nops)
	t.Rebuilt = append(t.Rebuilt[:0], b.rebuilt...)
	t.Empty = false
	t.Overflow = b.overflw
	t.Probes = b.probes
	t.ScanTiles = b.scans
	for d := 0; d < n; d++ {
		hi := b.base[d] + b.sizes[d]
		if hi > b.window[d].Hi {
			hi = b.window[d].Hi
		}
		t.Ranges[d] = Range{b.base[d], hi}
	}
	for oi := range b.k.Operands {
		v := b.emitMetrics(oi)
		t.OpFootprint[oi], t.OpNNZ[oi], t.OpTiles[oi] = v[metricFootprint], v[metricNNZ], v[metricTiles]
		if t.OpNNZ[oi] == 0 && !b.k.Operands[oi].Output {
			t.Empty = true
		}
	}
	return *t
}

// emitMetrics returns operand oi's View metrics for emit. When the log
// entry at the operand's position settled on the current box, the entry
// holds (or lazily takes) them. For a logged operand that is always so
// when it was rebuilt, since its dims are constrained from its last step
// on, and usually when it is resident, since its dims have been frozen
// since its last build.
func (b *builder) emitMetrics(oi int) [numMetrics]int64 {
	dims := b.k.Operands[oi].Dims
	lg := &b.logs[oi]
	if lg.at >= len(lg.entries) || !lg.entries[lg.at].holds(b, dims) {
		return b.metrics(oi)
	}
	e := &lg.entries[lg.at]
	if !e.has {
		e.val, e.has = b.metrics(oi), true
	}
	return e.val
}

// metrics queries operand oi's current box. opRanges' clamp matches
// emit's t.Ranges exactly, so the per-operand scratch doubles as the
// query box.
func (b *builder) metrics(oi int) [numMetrics]int64 {
	rs := b.opRanges(oi)
	var v [numMetrics]int64
	for m := range v {
		v[m] = b.query(oi, rs, m)
	}
	return v
}

// growRanges returns s resized to n entries, reallocating only on
// capacity growth.
func growRanges(s []Range, n int) []Range {
	if cap(s) < n {
		return make([]Range, n)
	}
	return s[:n]
}

// growI64 is growRanges for int64 slices.
func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}
