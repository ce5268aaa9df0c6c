package core

import "fmt"

// Enumerator walks the kernel's iteration space in loop order, calling
// Algorithm 1 to shape each task's tiles. Outer (more stationary) tensors
// keep their tiles resident across inner-loop advancement; when a loop
// level advances, exactly the tensors whose stationarity depth reaches that
// level are rebuilt — the behavior traced in Fig. 3.
type Enumerator struct {
	k   *Kernel
	cfg *Config

	window  []Range
	pos     []int // loop position of each dimension
	station []int // per operand: deepest loop position among its dims

	base    []int
	sizes   []int
	started bool
	done    bool

	b       *builder
	frozen  []bool
	rebuild []bool
}

// NewEnumerator validates the kernel/config pair and prepares a traversal.
func NewEnumerator(k *Kernel, cfg *Config) (*Enumerator, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	n := k.NDims()
	if len(cfg.LoopOrder) != n {
		return nil, fmt.Errorf("core: loop order has %d dims, kernel has %d", len(cfg.LoopOrder), n)
	}
	seen := make([]bool, n)
	for _, d := range cfg.LoopOrder {
		if d < 0 || d >= n || seen[d] {
			return nil, fmt.Errorf("core: loop order %v is not a permutation of the %d dims", cfg.LoopOrder, n)
		}
		seen[d] = true
	}
	e := &Enumerator{
		k: k, cfg: cfg,
		pos:   make([]int, n),
		base:  make([]int, n),
		sizes: make([]int, n),
	}
	// The window is copied into enumerator-owned storage so Reset can
	// retarget it in place (the builder aliases the same slice).
	e.window = make([]Range, n)
	if cfg.Window != nil {
		if len(cfg.Window) != n {
			return nil, fmt.Errorf("core: window has %d ranges, kernel has %d dims", len(cfg.Window), n)
		}
		copy(e.window, cfg.Window)
	} else {
		for d := range e.window {
			e.window[d] = Range{0, k.Extent[d]}
		}
	}
	for p, d := range cfg.LoopOrder {
		e.pos[d] = p
	}
	e.station = make([]int, len(k.Operands))
	for oi := range k.Operands {
		dm := 0
		for _, d := range k.Operands[oi].Dims {
			if e.pos[d] > dm {
				dm = e.pos[d]
			}
		}
		e.station[oi] = dm
	}
	for d := range e.base {
		e.base[d] = e.window[d].Lo
		if e.window[d].Len() <= 0 {
			e.done = true // empty iteration space
		}
	}
	bcfg := *cfg
	bcfg.Window = e.window
	e.b = newBuilder(k, &bcfg)
	e.frozen = make([]bool, n)
	e.rebuild = make([]bool, len(k.Operands))
	return e, nil
}

// Reset rewinds the enumerator to the start of a new window, reusing
// every piece of traversal and builder scratch (including the box-query
// cache, whose absolute-coordinate entries stay valid across windows, and
// the sweep logs, whose entries replay only on an equal key).
// The kernel and config are unchanged; w must have one range per kernel
// dimension. Hierarchical DRT re-tiles thousands of outer tasks through
// one enumerator this way instead of allocating one per task.
func (e *Enumerator) Reset(w []Range) error {
	if len(w) != len(e.window) {
		return fmt.Errorf("core: reset window has %d ranges, kernel has %d dims", len(w), len(e.window))
	}
	copy(e.window, w)
	e.started, e.done = false, false
	for d := range e.base {
		e.base[d] = e.window[d].Lo
		e.sizes[d] = 0
		if e.window[d].Len() <= 0 {
			e.done = true
		}
	}
	return nil
}

// Next returns the next Einsum task, or ok=false when the space is
// exhausted.
//
// The returned Task's slices alias pooled scratch owned by the
// enumerator: they are valid until the next Next or Reset call. Callers
// that retain a task across calls must Clone it.
func (e *Enumerator) Next() (Task, bool, error) {
	if e.done {
		return Task{}, false, nil
	}
	level := 0
	first := !e.started
	if first {
		e.started = true
	} else {
		// Advance the odometer innermost-first; each dimension steps by
		// the size its last task used, so nonuniform tiles ragged-tile the
		// space exactly.
		p := len(e.cfg.LoopOrder) - 1
		for {
			d := e.cfg.LoopOrder[p]
			e.base[d] += e.sizes[d]
			if e.base[d] < e.window[d].Hi {
				break
			}
			e.base[d] = e.window[d].Lo
			p--
			if p < 0 {
				e.done = true
				return Task{}, false, nil
			}
		}
		level = p
	}

	e.plan(level, first)
	t, err := e.b.build(e.base, e.sizes, e.frozen, e.rebuild)
	if err != nil {
		e.done = true
		return Task{}, false, err
	}
	if t.Empty {
		e.coalesceEmpty(&t)
	}
	return t, true, nil
}

// SkipInner ends the innermost loop's current sweep: the next Next
// advances the next-outer loop exactly as if the rest of the sweep had
// been walked. The rest of the sweep would only rebuild the operands
// indexed by the innermost dimension, which the next-outer advance
// rebuilds from the window origin anyway (their sweep-log positions
// rewind), and would touch the builder's memos, which never change a
// result; so skipping it changes no later task. A caller that already
// knows the rest of the sweep (hierarchical DRT's replay of a J sweep)
// uses it to step over those builds. It does nothing before the first
// task.
func (e *Enumerator) SkipInner() {
	if !e.started {
		return
	}
	d := e.cfg.LoopOrder[len(e.cfg.LoopOrder)-1]
	e.base[d], e.sizes[d] = e.window[d].Hi, 0
}

// plan sets up the build of a task at loop level `level`: dimensions of
// outer, mid-flight loops freeze, and the operands whose stationarity
// depth reaches the level rebuild. A rebuilt operand's sweep-log position
// goes back to the sweep's start when a loop outside the operand's
// innermost dimension advanced (or the traversal just began), and one
// step on otherwise.
func (e *Enumerator) plan(level int, first bool) {
	for d := range e.frozen {
		e.frozen[d] = e.pos[d] < level
	}
	for oi := range e.rebuild {
		e.rebuild[oi] = e.station[oi] >= level
		if !e.rebuild[oi] {
			continue
		}
		if lg := &e.b.logs[oi]; first || level < e.station[oi] {
			lg.at = 0
		} else {
			lg.at++
		}
	}
}

// coalesceEmpty widens an empty task along the innermost loop dimension
// over every consecutive position that would also produce an empty task.
// A position is provably empty when some operand's region holds no
// non-zeros — every effectual MACC needs all operands — so the widened
// span contributes exactly zero work and coverage is preserved. This
// mirrors the hardware, where unstored tiles in the compressed outer
// level never generate tasks, and keeps hyper-sparse iteration spaces
// from emitting millions of single-cell empty tasks.
func (e *Enumerator) coalesceEmpty(t *Task) {
	d := e.cfg.LoopOrder[len(e.cfg.LoopOrder)-1]
	hiEnd := e.window[d].Hi
	step := e.sizes[d]
	if step < 1 {
		step = 1
	}
	// An empty input operand that is not indexed by d stays empty for the
	// whole remaining d range: swallow it all. (Output operands never
	// decide emptiness.)
	for oi := range e.k.Operands {
		if e.k.Operands[oi].Output || t.OpNNZ[oi] != 0 || opContains(&e.k.Operands[oi], d) {
			continue
		}
		e.sizes[d] = hiEnd - e.base[d]
		t.Ranges[d].Hi = hiEnd
		return
	}
	// Otherwise, gallop each d-indexed operand's zero-occupancy run and
	// extend by the longest, aligned down to the task's step so later
	// (static) tiles keep their grid alignment.
	pos := e.base[d] + e.sizes[d]
	for pos < hiEnd {
		ext := pos
		for oi := range e.k.Operands {
			op := &e.k.Operands[oi]
			if op.Output || !opContains(op, d) {
				continue
			}
			probeHi := pos + step
			if probeHi > hiEnd {
				probeHi = hiEnd
			}
			if e.opNNZAt(oi, t.Ranges, d, pos, probeHi) != 0 {
				continue
			}
			run := e.emptyRunEnd(oi, t.Ranges, d, pos, hiEnd)
			// Align down to step boundaries (relative to pos).
			if run < hiEnd {
				run = pos + (run-pos)/step*step
			}
			if run > ext {
				ext = run
			}
		}
		if ext == pos {
			break
		}
		pos = ext
	}
	e.sizes[d] = pos - e.base[d]
	t.Ranges[d].Hi = pos
}

// opContains reports whether the operand is indexed by kernel dim d.
func opContains(op *Operand, d int) bool {
	for _, od := range op.Dims {
		if od == d {
			return true
		}
	}
	return false
}

// opNNZAt queries operand oi's occupancy with dimension d's range
// overridden to [lo, hi). It reuses the builder's per-operand scratch.
func (e *Enumerator) opNNZAt(oi int, ranges []Range, d, lo, hi int) int64 {
	op := &e.k.Operands[oi]
	rs := e.b.scratch[oi]
	for i, od := range op.Dims {
		if od == d {
			rs[i] = Range{lo, hi}
		} else {
			rs[i] = ranges[od]
		}
	}
	return op.View.NNZ(rs)
}

// emptyRunEnd returns the largest position end ≤ hiEnd such that the
// operand holds no non-zeros over d ∈ [from, end), found by exponential
// growth plus binary search on the O(1) occupancy query.
func (e *Enumerator) emptyRunEnd(oi int, ranges []Range, d, from, hiEnd int) int {
	// Exponential phase.
	span := 1
	end := from + 1
	for end < hiEnd {
		next := from + span*2
		if next > hiEnd {
			next = hiEnd
		}
		if e.opNNZAt(oi, ranges, d, from, next) != 0 {
			break
		}
		end = next
		span *= 2
		if end == hiEnd {
			return end
		}
	}
	// Binary phase between the known-empty end and the failed probe.
	lo, hi := end, from+span*2
	if hi > hiEnd {
		hi = hiEnd
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if e.opNNZAt(oi, ranges, d, from, mid) == 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Tasks drains the enumerator into a slice; convenient for tests and for
// the traffic-only accelerator models. Each task is cloned out of the
// pooled Next scratch, so the slice owns its memory.
func (e *Enumerator) Tasks() ([]Task, error) {
	var out []Task
	for {
		t, ok, err := e.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t.Clone())
	}
}

// Kernel returns the kernel this enumerator traverses.
func (e *Enumerator) Kernel() *Kernel { return e.k }

// ExtractStats aggregates builder-side observability for one extraction
// run.
type ExtractStats struct {
	// BoxHits / BoxMisses count box-query cache lookups that were served
	// from (respectively filled into) the per-builder memo of Summary
	// region queries.
	BoxHits, BoxMisses int64
	// StepHits / StepMisses count operand tile builds that were replayed
	// from (respectively run into) the builder's per-operand sweep logs.
	StepHits, StepMisses int64
}

// CacheStats returns the builder's box-query cache and sweep-log totals
// so far.
func (e *Enumerator) CacheStats() ExtractStats {
	return ExtractStats{
		BoxHits: e.b.boxHits, BoxMisses: e.b.boxMisses,
		StepHits: e.b.stepHits, StepMisses: e.b.stepMisses,
	}
}
