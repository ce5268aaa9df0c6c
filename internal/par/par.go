// Package par is the bounded worker pool the experiment runners fan out
// on: a slice of independent (workload × config) cells is mapped across a
// fixed number of goroutines and the results are reassembled in input
// order, so a parallel run produces output byte-identical to the
// sequential one. Error semantics likewise match the sequential loop: the
// error returned is always the one with the lowest input index, the same
// error a `for` loop that stops at the first failure would surface.
//
// Cells given a-priori cost estimates (Options.Weights) are dispatched
// longest processing time first (LPT): every idle worker steals the
// largest remaining cell from a shared priority heap. Per-cell cost in the
// paper's sweeps is power-law skewed (one matrix can be 100× the rest),
// and index-order dispatch strands the pool behind a heavy cell that
// starts late. Cells without weights, and every run on one worker, go in
// input index order. Because results land in out[i] regardless of
// execution order, the output bytes are identical under either order at
// any worker count.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"drt/internal/obs"
)

// Options bundles the pool configuration of MapWith.
type Options struct {
	// Workers bounds the goroutines (values < 1 select one per CPU).
	Workers int
	// Weights holds per-cell a-priori cost estimates (any monotone proxy
	// works; the experiment runners use scaled nnz, the same totals the
	// tiling summaries carry). Nil is allowed and dispatches in index
	// order; non-nil must have exactly one entry per cell. Weights key
	// the LPT heap (heaviest first, ties toward the lower index) and,
	// with Progress attached, the nnz-weighted ETA.
	Weights []int64
	// Progress, when non-nil, receives live telemetry: the cells are
	// registered up front (with their summed weights) and every completed
	// cell reports the worker that ran it, its wall time and its weight.
	Progress *obs.Progress
}

// Workers resolves a -parallel style worker-count setting: values below 1
// select runtime.GOMAXPROCS(0) (one worker per available CPU); anything
// else is returned unchanged.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs f(i) for i in [0, n) across at most workers goroutines
// (workers < 1 means one per CPU) and returns the n results in input
// order. On failure it returns the error with the lowest index — exactly
// the error a sequential loop stopping at the first failure would return.
// Cells a sequential run would never have reached are skipped.
//
// With workers == 1 (or n < 2) no goroutines are spawned and f runs
// inline, reproducing the pre-pool sequential behavior bit for bit.
func Map[T any](workers, n int, f func(i int) (T, error)) ([]T, error) {
	return MapWith(Options{Workers: workers}, n, f)
}

// MapWith is Map under an explicit pool configuration: a-priori cell
// weights, which set the dispatch order, and live progress. Results are
// always reassembled in input order and the error returned is always the
// lowest-index one, so output bytes do not depend on Workers or Weights. A non-nil Weights slice
// whose length differs from n is a caller bug and returns an error before
// any cell runs.
func MapWith[T any](opt Options, n int, f func(i int) (T, error)) ([]T, error) {
	if opt.Weights != nil && len(opt.Weights) != n {
		return nil, fmt.Errorf("par: %d weights for %d cells", len(opt.Weights), n)
	}
	var onCell func(i, worker int, busy time.Duration)
	if p := opt.Progress; p != nil {
		weight := func(int) int64 { return 0 }
		var total int64
		if opt.Weights != nil {
			for _, w := range opt.Weights {
				total += w
			}
			weights := opt.Weights
			weight = func(i int) int64 { return weights[i] }
		}
		p.AddCells(int64(n), total)
		onCell = func(i, worker int, busy time.Duration) {
			p.CellDone(worker, busy, weight(i))
		}
	}
	return mapObserved(opt, n, f, onCell)
}

// mapObserved is the dispatch loop behind the Map variants. onCell, when
// non-nil, is invoked after every successful cell with the cell index, the
// worker that ran it and the cell's wall-clock duration; it must be safe
// for concurrent calls. The clock is only read when onCell is set. Cells
// that complete after a failure has been observed do not tick onCell: a
// sequential run would never have counted them, and the progress counters
// must not outrun the sequential semantics the pool promises.
func mapObserved[T any](opt Options, n int, f func(i int) (T, error), onCell func(i, worker int, busy time.Duration)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers := Workers(opt.Workers)
	if workers > n {
		workers = n
	}
	var failed atomic.Bool
	run := func(i, worker int) (T, error) {
		if onCell == nil {
			return f(i)
		}
		start := time.Now()
		v, err := f(i)
		if err == nil && !failed.Load() {
			onCell(i, worker, time.Since(start))
		}
		return v, err
	}
	if workers <= 1 || n == 1 {
		// The inline path always runs in index order whatever the
		// weights: with one worker LPT cannot improve the makespan, and
		// index order reproduces the pre-pool sequential loops bit for
		// bit, including stopping at the first failure.
		for i := 0; i < n; i++ {
			v, err := run(i, 0)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		wg sync.WaitGroup

		mu     sync.Mutex
		errIdx = n // lowest failing index seen so far
		lowErr error
	)
	var dispatch func(worker int) int // next cell for an idle worker, -1 when drained
	if opt.Weights != nil {
		h := newLPTHeap(n, opt.Weights)
		dispatch = func(int) int {
			mu.Lock()
			defer mu.Unlock()
			for h.len() > 0 {
				i := h.pop()
				// Once a failure is recorded, only cells a sequential run
				// would still have reached — those below the lowest failing
				// index — are worth running: one of them could fail with an
				// even lower index, and sequential equivalence promises the
				// lowest one. Everything else is discarded unrun, exactly
				// like index-order dispatch's undispatched tail.
				if i < errIdx {
					return i
				}
			}
			return -1
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		dispatch = func(int) int {
			// Index-order dispatch: when a failure at k is observed, every
			// cell below k was already handed out (and runs to completion),
			// so the lowest failing index is always among the dispatched
			// cells and dispatch can simply stop.
			i := int(next.Add(1))
			if i >= n || failed.Load() {
				return -1
			}
			return i
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := dispatch(worker)
				if i < 0 {
					return
				}
				v, err := run(i, worker)
				if err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, lowErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
					continue
				}
				out[i] = v
			}
		}(w)
	}
	wg.Wait()
	if lowErr != nil {
		return nil, lowErr
	}
	return out, nil
}

// lptHeap is a binary max-heap of cell indices ordered by weight (which
// must be non-nil — weightless cells go in index order and never reach
// here), ties broken toward the lower index. The pool's cells are coarse
// (milliseconds to tens of seconds), so one mutex-guarded heap shared by
// every worker is the whole work-stealing structure: an idle worker's pop
// IS the steal of the largest remaining cell.
type lptHeap struct {
	idx     []int
	weights []int64
}

func newLPTHeap(n int, weights []int64) *lptHeap {
	h := &lptHeap{idx: make([]int, n), weights: weights}
	for i := range h.idx {
		h.idx[i] = i
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// less orders the heap: heavier first, lower index on ties.
func (h *lptHeap) less(a, b int) bool {
	wa, wb := h.weights[a], h.weights[b]
	if wa != wb {
		return wa > wb
	}
	return a < b
}

func (h *lptHeap) len() int { return len(h.idx) }

// pop removes and returns the heaviest remaining cell index.
func (h *lptHeap) pop() int {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *lptHeap) down(i int) {
	n := len(h.idx)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && h.less(h.idx[r], h.idx[l]) {
			best = r
		}
		if !h.less(h.idx[best], h.idx[i]) {
			return
		}
		h.idx[i], h.idx[best] = h.idx[best], h.idx[i]
		i = best
	}
}
