package par

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"drt/internal/obs"
)

// TestMapWithWeightLengthMismatch pins the weight validation: a non-nil
// weight vector of the wrong length is a caller bug reported before any
// cell runs, not a mid-grid panic.
func TestMapWithWeightLengthMismatch(t *testing.T) {
	_, err := MapWith(Options{Workers: 2, Weights: []int64{1, 2}}, 5, func(i int) (int, error) {
		t.Fatal("f ran despite the weight mismatch")
		return 0, nil
	})
	if err == nil {
		t.Fatal("no error for 2 weights over 5 cells")
	}
	p := obs.NewProgress()
	if _, err := MapWith(Options{Workers: 2, Weights: []int64{1}, Progress: p}, 3, func(i int) (int, error) { return i, nil }); err == nil {
		t.Fatal("MapWith with progress accepted 1 weight for 3 cells")
	}
	if s := p.Snapshot(); s.CellsTotal != 0 {
		t.Errorf("rejected grid registered %d cells", s.CellsTotal)
	}
}

// TestSchedDeterministicOutput is the byte-identity property: the same
// cells produce the same serialized output at every worker count, in
// index order (no weights) and longest first (weights), because results
// are reassembled in input order regardless of execution order.
func TestSchedDeterministicOutput(t *testing.T) {
	const n = 23
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = int64((i*7)%11 + 1) // skewed, with ties
	}
	render := func(workers int, weights []int64) []byte {
		rows, err := MapWith(Options{Workers: workers, Weights: weights}, n, func(i int) (string, error) {
			return fmt.Sprintf("row %d = %d", i, i*i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range rows {
			fmt.Fprintln(&buf, r)
		}
		return buf.Bytes()
	}
	want := render(1, nil)
	for _, workers := range []int{1, 2, 3, 8} {
		for _, w := range [][]int64{nil, weights} {
			if got := render(workers, w); !bytes.Equal(got, want) {
				t.Fatalf("workers=%d weighted=%v output differs from sequential", workers, w != nil)
			}
		}
	}
}

// TestLPTHeapOrder pins the dispatch order of the priority heap: weight
// descending, index ascending on ties.
func TestLPTHeapOrder(t *testing.T) {
	h := newLPTHeap(6, []int64{3, 1, 4, 1, 5, 4})
	want := []int{4, 2, 5, 0, 1, 3}
	for _, w := range want {
		if got := h.pop(); got != w {
			t.Fatalf("pop order: got %d, want %d", got, w)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not drained: %d left", h.len())
	}
}

// TestLPTStealsHeaviestFirst checks the starvation fix end to end: with
// one cell weighted 100× the rest, that cell is among the first cells
// dispatched (it can never be stranded to the end of the sweep, where it
// alone would set the makespan).
func TestLPTStealsHeaviestFirst(t *testing.T) {
	const n, workers, heavy = 50, 4, 17
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = 1
	}
	weights[heavy] = 100
	var started atomic.Int64
	var heavyPos int64 = -1
	got, err := MapWith(Options{Workers: workers, Weights: weights}, n, func(i int) (int, error) {
		pos := started.Add(1)
		if i == heavy {
			atomic.StoreInt64(&heavyPos, pos)
		}
		return i * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if pos := atomic.LoadInt64(&heavyPos); pos < 1 || pos > workers {
		t.Fatalf("heavy cell started %d-th, want within the first %d", pos, workers)
	}
}

// TestLPTFirstDispatchIsHeaviest forces two workers to hold the first two
// dispatched cells and checks they are exactly the two heaviest.
func TestLPTFirstDispatchIsHeaviest(t *testing.T) {
	started := make(chan int, 4)
	gate := make(chan struct{})
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		first := map[int]bool{<-started: true, <-started: true}
		if !first[1] || !first[3] {
			t.Errorf("first dispatched cells = %v, want {1, 3}", first)
		}
		close(gate)
	}()
	_, err := MapWith(Options{Workers: 2, Weights: []int64{1, 10, 1, 20}}, 4, func(i int) (int, error) {
		started <- i
		<-gate
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-checked
}

// TestLPTLowestIndexError drives an out-of-order failure sequence: the
// heaviest (first-dispatched) cell fails first, a lighter lower-index cell
// fails afterwards, and the error returned must still be the lowest-index
// one — the sequential run's error.
func TestLPTLowestIndexError(t *testing.T) {
	heavyFailed := make(chan struct{})
	weights := []int64{1, 1, 50, 1, 1, 100}
	_, err := MapWith(Options{Workers: 2, Weights: weights}, 6, func(i int) (int, error) {
		switch i {
		case 5: // dispatched first (weight 100), fails immediately
			close(heavyFailed)
			return 0, fmt.Errorf("cell %d", i)
		case 2: // dispatched second (weight 50), fails after cell 5 did
			<-heavyFailed
			return 0, fmt.Errorf("cell %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "cell 2" {
		t.Fatalf("err = %v, want cell 2 (the lowest failing index)", err)
	}
}

// TestSchedAllFail: when every cell fails, index order and longest first
// both converge on the sequential answer — cell 0 — at any worker count,
// because the salvage pass keeps running cells below the lowest failing
// index seen.
func TestSchedAllFail(t *testing.T) {
	weights := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, w := range [][]int64{nil, weights} {
			_, err := MapWith(Options{Workers: workers, Weights: w}, len(weights), func(i int) (int, error) {
				return 0, fmt.Errorf("cell %d", i)
			})
			if err == nil || err.Error() != "cell 0" {
				t.Fatalf("workers=%d weighted=%v: err = %v, want cell 0", workers, w != nil, err)
			}
		}
	}
}

// TestLPTBoundedConcurrency: the LPT path spawns no more goroutines than
// requested.
func TestLPTBoundedConcurrency(t *testing.T) {
	const workers = 3
	weights := make([]int64, 60)
	for i := range weights {
		weights[i] = int64(i % 9)
	}
	var inFlight, peak int32
	_, err := MapWith(Options{Workers: workers, Weights: weights}, len(weights), func(i int) (int, error) {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		atomic.AddInt32(&inFlight, -1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", peak, workers)
	}
}

// TestProgressNotOvercountedAfterFailure pins the post-failure tick
// suppression: a cell that completes successfully after a failure has been
// observed must not advance the progress counters — the sequential run the
// pool mirrors would never have reached it.
func TestProgressNotOvercountedAfterFailure(t *testing.T) {
	p := obs.NewProgress()
	started2 := make(chan struct{})
	release := make(chan struct{})
	// LPT dispatches cells 1 (w20) and 2 (w10) to the two workers first.
	// Cell 1 fails once cell 2 is in flight; the failed worker's salvage
	// pass then dispatches cell 0, which — running strictly after the
	// failure was recorded — releases cell 2. Both successful completions
	// therefore land after the failure and must not tick.
	_, err := MapWith(Options{Workers: 2, Progress: p, Weights: []int64{1, 20, 10, 1}}, 4, func(i int) (int, error) {
		switch i {
		case 1:
			<-started2
			return 0, fmt.Errorf("cell %d", i)
		case 2:
			close(started2)
			<-release
		case 0:
			close(release)
		}
		return i, nil
	})
	if err == nil || err.Error() != "cell 1" {
		t.Fatalf("err = %v, want cell 1", err)
	}
	s := p.Snapshot()
	if s.CellsDone != 0 || s.WorkDone != 0 {
		t.Fatalf("progress %d cells / %d work after failure, want 0/0 (no post-failure ticks)", s.CellsDone, s.WorkDone)
	}
}
