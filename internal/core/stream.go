package core

import (
	"sync"
	"sync/atomic"
)

// ExtractStats aggregates builder-side observability for one extraction
// run — across every shard of a streamed run, or the single builder of an
// inline one.
type ExtractStats struct {
	// BoxHits / BoxMisses count box-query cache lookups that were served
	// from (respectively filled into) the per-builder memo of Summary
	// region queries.
	BoxHits, BoxMisses int64
	// StepHits / StepMisses count operand tile builds that were replayed
	// from (respectively run into) the builder's per-operand sweep logs.
	StepHits, StepMisses int64
}

// TaskSource is the engine-facing task stream: the accel engines consume
// one uniformly whether tasks are extracted inline on the caller's
// goroutine or pipelined by background shard workers.
//
// The returned *Task is valid until the following Next call, which
// recycles it into the producer pool; retainers must Clone. After Next
// reports ok=false (or an error) the stream is exhausted. Close releases
// producer goroutines and must be called when abandoning a stream early;
// it is idempotent and safe after exhaustion.
type TaskSource interface {
	Next() (*Task, bool, error)
	Close()
	Stats() ExtractStats
}

// Source wraps the enumerator as a TaskSource that extracts inline on
// the caller's goroutine — the zero-overhead sequential path.
func (e *Enumerator) Source() TaskSource { return &inlineSource{e: e} }

type inlineSource struct {
	e *Enumerator
	t Task
}

func (s *inlineSource) Next() (*Task, bool, error) {
	t, ok, err := s.e.Next()
	if !ok || err != nil {
		return nil, ok, err
	}
	s.t = t
	return &s.t, true, nil
}

func (s *inlineSource) Close() {}

func (s *inlineSource) Stats() ExtractStats { return s.e.CacheStats() }

// StreamOptions configure a pipelined extraction stream.
type StreamOptions struct {
	// Workers is the number of producers. Values ≤ 1 run one background
	// producer (extraction still overlaps the consumer); higher values
	// additionally shard the outermost loop dimension across that many
	// enumerator clones with deterministic in-order stitching.
	Workers int
	// Depth is the per-producer bounded-buffer budget in tasks
	// (default 64).
	Depth int
	// OnEmit, when non-nil, is called once per task handed from a producer
	// to the stream's buffers — the live "extractor running ahead" signal.
	// It must be safe for concurrent calls and cheap (an atomic tick);
	// task delivery order and content are unaffected.
	OnEmit func()
}

// defaultStreamDepth is the per-producer buffered task budget.
const defaultStreamDepth = 64

// StreamTasks starts a pipelined task extraction over the kernel and
// returns its consumer end. The delivered task sequence — coordinates,
// footprints, probe and scan counts — is byte-identical to a sequential
// Enumerator walk at any worker count; see DESIGN.md "Extraction
// pipeline" for the argument.
func StreamTasks(k *Kernel, cfg *Config, opt StreamOptions) (TaskSource, error) {
	depth := opt.Depth
	if depth < 1 {
		depth = defaultStreamDepth
	}
	if opt.Workers <= 1 {
		e, err := NewEnumerator(k, cfg)
		if err != nil {
			return nil, err
		}
		s := &singleStream{
			recycler: recycler{free: make(chan *Task, depth+2)},
			tasks:    make(chan *Task, depth),
			stop:     make(chan struct{}),
			onEmit:   opt.OnEmit,
		}
		go s.produce(e)
		return s, nil
	}
	return newShardStream(k, cfg, opt.Workers, depth, opt.OnEmit)
}

// recycler is the shared free-list plumbing of both stream kinds.
type recycler struct {
	free chan *Task
	cur  *Task
}

// take returns a pooled task, or a fresh one when the pool is dry.
func (r *recycler) take() *Task {
	select {
	case t := <-r.free:
		return t
	default:
		return new(Task)
	}
}

// recycle returns the previously delivered task to the pool.
func (r *recycler) recycle() {
	if r.cur == nil {
		return
	}
	select {
	case r.free <- r.cur:
	default: // pool full; let the GC have it
	}
	r.cur = nil
}

// singleStream is the one-producer pipeline: a background goroutine runs
// the enumerator and the consumer overlaps simulation with extraction.
type singleStream struct {
	recycler
	tasks  chan *Task
	stop   chan struct{}
	once   sync.Once
	onEmit func()
	// err and stats are written by the producer before tasks is closed;
	// the close is the happens-before edge for consumer reads.
	err   error
	stats ExtractStats
}

func (s *singleStream) produce(e *Enumerator) {
	defer close(s.tasks)
	for {
		t, ok, err := e.Next()
		if err != nil {
			s.err = err
			s.stats = e.CacheStats()
			return
		}
		if !ok {
			s.stats = e.CacheStats()
			return
		}
		out := s.take()
		t.cloneInto(out)
		select {
		case s.tasks <- out:
			if s.onEmit != nil {
				s.onEmit()
			}
		case <-s.stop:
			return
		}
	}
}

func (s *singleStream) Next() (*Task, bool, error) {
	s.recycle()
	t, ok := <-s.tasks
	if !ok {
		return nil, false, s.err
	}
	s.cur = t
	return t, true, nil
}

func (s *singleStream) Close() { s.once.Do(func() { close(s.stop) }) }

func (s *singleStream) Stats() ExtractStats { return s.stats }

// spanSeed captures one outer-dimension span at its first task: the task
// itself (built by the planner under the full window, so its probe/scan
// counts match the sequential walk exactly) plus the post-build,
// post-coalesce odometer state a shard resumes from.
type spanSeed struct {
	task  *Task
	base  []int
	sizes []int
}

// spanWork is one span travelling from the planner to a shard worker and
// on to the consumer.
type spanWork struct {
	seed  spanSeed
	tasks chan *Task
	// err is written by the worker before tasks is closed.
	err error
}

// shardStream shards the outermost loop dimension across worker
// enumerators. A sequential planner walks only the outer level — building
// each span's first task under the full window — and hands spans to
// workers that replay the span interior; the consumer stitches spans back
// in planning order, so the delivered sequence is exactly the sequential
// one.
type shardStream struct {
	recycler
	spans  chan *spanWork // planner → consumer, in planning order
	work   chan *spanWork // planner → workers, same order (FIFO claim)
	stop   chan struct{}
	once   sync.Once
	onEmit func()

	curSpan *spanWork
	done    bool
	err     error

	// plannerErr is written before spans is closed.
	plannerErr           error
	boxHits, boxMisses   atomic.Int64
	stepHits, stepMisses atomic.Int64
}

func newShardStream(k *Kernel, cfg *Config, workers, depth int, onEmit func()) (*shardStream, error) {
	plan, err := NewEnumerator(k, cfg)
	if err != nil {
		return nil, err
	}
	shards := make([]*Enumerator, workers)
	for i := range shards {
		se, err := NewEnumerator(k, cfg)
		if err != nil {
			return nil, err
		}
		shards[i] = se
	}
	inflight := workers * 2
	s := &shardStream{
		recycler: recycler{free: make(chan *Task, workers*depth+workers+2)},
		spans:    make(chan *spanWork, inflight),
		work:     make(chan *spanWork, inflight),
		stop:     make(chan struct{}),
		onEmit:   onEmit,
	}
	go s.planSpans(plan, depth)
	for _, se := range shards {
		go s.runShard(se)
	}
	return s, nil
}

// planSpans walks the outer loop level sequentially, emitting one
// spanWork per outer step. Pushing to spans before work keeps the
// consumer's stitching order identical to planning order.
func (s *shardStream) planSpans(e *Enumerator, depth int) {
	defer close(s.spans)
	defer close(s.work)
	for {
		t, ok, err := e.nextSpan()
		if err != nil {
			s.plannerErr = err
			s.addStats(e)
			return
		}
		if !ok {
			s.addStats(e)
			return
		}
		seed := spanSeed{
			task:  s.take(),
			base:  append([]int(nil), e.base...),
			sizes: append([]int(nil), e.sizes...),
		}
		t.cloneInto(seed.task)
		sw := &spanWork{seed: seed, tasks: make(chan *Task, depth)}
		select {
		case s.spans <- sw:
		case <-s.stop:
			return
		}
		select {
		case s.work <- sw:
		case <-s.stop:
			return
		}
	}
}

// runShard claims spans FIFO and replays each interior on a private
// enumerator clone.
func (s *shardStream) runShard(e *Enumerator) {
	for sw := range s.work {
		s.runSpan(e, sw)
	}
}

func (s *shardStream) runSpan(e *Enumerator, sw *spanWork) {
	defer close(sw.tasks)
	// The span's first task was built by the planner; ship it as-is.
	if !s.send(sw, sw.seed.task) {
		return
	}
	e.resumeSpan(sw.seed)
	for {
		t, ok, err := e.Next()
		if err != nil {
			sw.err = err
			break
		}
		if !ok {
			break
		}
		out := s.take()
		t.cloneInto(out)
		if !s.send(sw, out) {
			return
		}
	}
	// Published before the channel close so Stats reads after drain see
	// every shard's counts.
	s.addStats(e)
}

func (s *shardStream) send(sw *spanWork, t *Task) bool {
	select {
	case sw.tasks <- t:
		if s.onEmit != nil {
			s.onEmit()
		}
		return true
	case <-s.stop:
		return false
	}
}

// addStats folds one enumerator's cache counters into the stream totals
// and zeroes them, so per-span accounting never double-counts.
func (s *shardStream) addStats(e *Enumerator) {
	st := e.CacheStats()
	s.boxHits.Add(st.BoxHits - e.statsTaken.BoxHits)
	s.boxMisses.Add(st.BoxMisses - e.statsTaken.BoxMisses)
	s.stepHits.Add(st.StepHits - e.statsTaken.StepHits)
	s.stepMisses.Add(st.StepMisses - e.statsTaken.StepMisses)
	e.statsTaken = st
}

func (s *shardStream) Next() (*Task, bool, error) {
	s.recycle()
	if s.done {
		return nil, false, nil
	}
	for {
		if s.curSpan == nil {
			sw, ok := <-s.spans
			if !ok {
				s.done = true
				return nil, false, s.plannerErr
			}
			s.curSpan = sw
		}
		t, ok := <-s.curSpan.tasks
		if !ok {
			if err := s.curSpan.err; err != nil {
				// A build failed mid-span: surface it exactly where the
				// sequential walk would have, after the span's earlier
				// tasks, and stop — later spans are discarded.
				s.done = true
				s.Close()
				return nil, false, err
			}
			s.curSpan = nil
			continue
		}
		s.cur = t
		return t, true, nil
	}
}

func (s *shardStream) Close() { s.once.Do(func() { close(s.stop) }) }

func (s *shardStream) Stats() ExtractStats {
	return ExtractStats{
		BoxHits: s.boxHits.Load(), BoxMisses: s.boxMisses.Load(),
		StepHits: s.stepHits.Load(), StepMisses: s.stepMisses.Load(),
	}
}

// nextSpan advances the enumerator one outermost-dimension step, building
// (and empty-coalescing) the span's first task under the full window —
// exactly the build the sequential walk performs at loop level 0, where
// no dimension is frozen and every operand rebuilds. After it returns,
// e.base/e.sizes hold the span's resume state.
func (e *Enumerator) nextSpan() (Task, bool, error) {
	if e.done {
		return Task{}, false, nil
	}
	first := !e.started
	if first {
		e.started = true
	} else {
		d0 := e.cfg.LoopOrder[0]
		e.base[d0] += e.sizes[d0]
		if e.base[d0] >= e.window[d0].Hi {
			e.done = true
			return Task{}, false, nil
		}
		for _, d := range e.cfg.LoopOrder[1:] {
			e.base[d] = e.window[d].Lo
		}
	}
	e.plan(0, first)
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

// resumeSpan positions the enumerator immediately after a span's first
// task: the window is the full window with the outermost loop dimension
// narrowed to the span, and base/sizes are the planner-captured state.
// The interior builds freeze the outer dimension (every in-span task sits
// at loop level ≥ 1), so they never probe past the span edge and replay
// the sequential walk bit-for-bit. The sweep logs rewind, as the seed's
// level-0 build rewinds every operand the span interior rebuilds.
func (e *Enumerator) resumeSpan(seed spanSeed) {
	d0 := e.cfg.LoopOrder[0]
	e.window[d0] = Range{seed.base[d0], seed.base[d0] + seed.sizes[d0]}
	copy(e.base, seed.base)
	copy(e.sizes, seed.sizes)
	e.started = true
	e.done = false
	for oi := range e.b.logs {
		e.b.logs[oi].at = 0
	}
}
