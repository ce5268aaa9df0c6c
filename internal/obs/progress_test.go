package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a Progress whose clock the test controls.
func fakeClock(t *testing.T) (*Progress, func(d time.Duration)) {
	t.Helper()
	now := time.Unix(1000, 0)
	p := &Progress{now: func() time.Time { return now }}
	p.startNanos.Store(now.UnixNano())
	return p, func(d time.Duration) { now = now.Add(d) }
}

func TestNilProgressNoOp(t *testing.T) {
	var p *Progress
	p.SetPhase("x")
	p.AddCells(3, 30)
	p.CellDone(0, time.Second, 10)
	p.TaskDone(5)
	p.UnitStart("fig6")
	p.UnitEnd("fig6")
	stop := p.StartPrinter(nil, time.Millisecond)
	stop()
	s := p.Snapshot()
	if s.ETASeconds != -1 || s.CellsDone != 0 {
		t.Errorf("nil snapshot = %+v, want zero with ETA -1", s)
	}
	if err := p.WriteProm(&strings.Builder{}); err != nil {
		t.Errorf("nil WriteProm: %v", err)
	}
}

// TestNilProgressTickAllocFree pins the disabled hot path: ticking a nil
// tracker (what every engine task loop does when no -progress/-listen was
// given) must not allocate.
func TestNilProgressTickAllocFree(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		p := Active()
		p.TaskDone(1)
		p.CellDone(0, 0, 1)
	})
	if allocs != 0 {
		t.Errorf("nil progress tick allocates %v per run, want 0", allocs)
	}
}

// TestProgressTickAllocFree pins the enabled hot path too: the per-task
// ticks are single atomic adds.
func TestProgressTickAllocFree(t *testing.T) {
	p := NewProgress()
	SetActive(p)
	defer SetActive(nil)
	allocs := testing.AllocsPerRun(100, func() {
		q := Active()
		q.TaskDone(1)
		q.CellDone(1, time.Millisecond, 2)
	})
	if allocs != 0 {
		t.Errorf("live progress tick allocates %v per run, want 0", allocs)
	}
}

func TestProgressSnapshot(t *testing.T) {
	p, advance := fakeClock(t)
	p.SetPhase("prepare")
	p.AddCells(4, 100)
	advance(10 * time.Second)
	p.CellDone(0, 8*time.Second, 25)
	p.TaskDone(7)

	s := p.Snapshot()
	if s.Phase != "prepare" || s.CellsDone != 1 || s.CellsTotal != 4 {
		t.Errorf("snapshot basics wrong: %+v", s)
	}
	if s.TasksDone != 7 {
		t.Errorf("task counts wrong: %+v", s)
	}
	if s.WorkDone != 25 || s.WorkTotal != 100 {
		t.Errorf("work counts wrong: %+v", s)
	}
	// 25 of 100 weighted units in 10s -> 30s remaining.
	if s.ETASeconds < 29.99 || s.ETASeconds > 30.01 {
		t.Errorf("ETA = %v, want 30", s.ETASeconds)
	}
	if len(s.Workers) != 1 || s.Workers[0].Worker != 0 || s.Workers[0].Cells != 1 {
		t.Fatalf("workers = %+v", s.Workers)
	}
	if u := s.Workers[0].Utilization; u < 0.799 || u > 0.801 {
		t.Errorf("utilization = %v, want 0.8", u)
	}
}

func TestProgressUnits(t *testing.T) {
	p, advance := fakeClock(t)
	p.UnitStart("fig6")
	advance(2 * time.Second)
	p.UnitEnd("fig6")
	p.UnitStart("fig7")
	advance(3 * time.Second)

	s := p.Snapshot()
	if len(s.Units) != 2 {
		t.Fatalf("units = %+v", s.Units)
	}
	if s.Units[0].Name != "fig6" || s.Units[0].State != "done" || s.Units[0].Seconds != 2 {
		t.Errorf("fig6 = %+v", s.Units[0])
	}
	if s.Units[1].Name != "fig7" || s.Units[1].State != "running" || s.Units[1].Seconds != 3 {
		t.Errorf("fig7 = %+v", s.Units[1])
	}
	if s.Phase != "fig7" {
		t.Errorf("phase = %q, want fig7", s.Phase)
	}
	// Ending an unknown unit is ignored.
	p.UnitEnd("nope")
}

// TestETAMonotonic is the property test: at a fixed elapsed time the
// estimate is strictly decreasing as completed work grows, never negative
// (except the -1 unknown sentinel), and hits exactly 0 at completion.
func TestETAMonotonic(t *testing.T) {
	const elapsed = 10 * time.Second
	const total = 1000
	prev := -1.0
	for done := int64(0); done <= total; done++ {
		got := eta(elapsed, done, total, 0, 0)
		switch {
		case done == 0:
			if got != -1 {
				t.Fatalf("eta(done=0) = %v, want -1", got)
			}
		case done == total:
			if got != 0 {
				t.Fatalf("eta(done=total) = %v, want 0", got)
			}
		default:
			if got < 0 {
				t.Fatalf("eta(done=%d) = %v, negative", done, got)
			}
			if prev >= 0 && got >= prev {
				t.Fatalf("eta not strictly decreasing at done=%d: %v -> %v", done, prev, got)
			}
		}
		if done > 0 && done < total {
			prev = got
		}
	}
}

func TestETAFallsBackToCells(t *testing.T) {
	// No weighted work registered: the cell counts drive the estimate.
	if got := eta(10*time.Second, 0, 0, 5, 10); got != 10 {
		t.Errorf("cell-rate eta = %v, want 10", got)
	}
	// Weighted totals present but inconsistent (done > total): fall back.
	if got := eta(10*time.Second, 20, 10, 5, 10); got != 10 {
		t.Errorf("inconsistent-weight eta = %v, want 10", got)
	}
	// Nothing known at all.
	if got := eta(10*time.Second, 0, 0, 0, 0); got != -1 {
		t.Errorf("unknown eta = %v, want -1", got)
	}
}

// TestProgressConcurrent hammers every update path from many goroutines
// while snapshots are taken; run under -race this is the data-race check,
// and the final counts must balance exactly.
func TestProgressConcurrent(t *testing.T) {
	p := NewProgress()
	SetActive(p)
	defer SetActive(nil)
	const (
		workers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				q := Active()
				q.AddCells(1, 2)
				q.TaskDone(1)
				q.CellDone(w, time.Microsecond, 2)
				if i%100 == 0 {
					q.SetPhase("phase")
					q.UnitStart("unit")
					_ = q.Snapshot()
					_ = q.Line()
				}
			}
		}(w)
	}
	wg.Wait()
	s := p.Snapshot()
	total := int64(workers * perW)
	if s.CellsDone != total || s.CellsTotal != total {
		t.Errorf("cells %d/%d, want %d/%d", s.CellsDone, s.CellsTotal, total, total)
	}
	if s.TasksDone != total {
		t.Errorf("tasks %d, want %d", s.TasksDone, total)
	}
	if s.WorkDone != 2*total || s.WorkTotal != 2*total {
		t.Errorf("work %d/%d, want %d/%d", s.WorkDone, s.WorkTotal, 2*total, 2*total)
	}
	if s.ETASeconds != 0 {
		t.Errorf("eta at completion = %v, want 0", s.ETASeconds)
	}
	if len(s.Workers) != workers {
		t.Errorf("worker slots = %d, want %d", len(s.Workers), workers)
	}
}

func TestWorkerIndexClamped(t *testing.T) {
	p := NewProgress()
	p.CellDone(-5, time.Second, 1)
	p.CellDone(MaxProgressWorkers+100, time.Second, 1)
	s := p.Snapshot()
	if len(s.Workers) != 2 {
		t.Fatalf("workers = %+v", s.Workers)
	}
	if s.Workers[0].Worker != 0 || s.Workers[1].Worker != MaxProgressWorkers-1 {
		t.Errorf("clamped slots = %d, %d", s.Workers[0].Worker, s.Workers[1].Worker)
	}
}

func TestProgressLine(t *testing.T) {
	p, advance := fakeClock(t)
	p.AddCells(4, 40)
	advance(8 * time.Second)
	p.CellDone(0, 7*time.Second, 20)
	p.TaskDone(123)
	p.SetPhase("fig14")
	line := p.Line()
	for _, want := range []string{"1/4 cells", "50% nnz-weighted", "123 tasks", "in fig14", "elapsed 8s", "eta 8s"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

func TestStartPrinter(t *testing.T) {
	p := NewProgress()
	p.AddCells(1, 1)
	var mu sync.Mutex
	var sb strings.Builder
	w := writerFunc(func(b []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(b)
	})
	stop := p.StartPrinter(w, time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	out := sb.String()
	mu.Unlock()
	if !strings.Contains(out, "progress: 0/1 cells") {
		t.Errorf("printer output %q missing progress line", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }
