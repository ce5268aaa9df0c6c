package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// MaxProgressWorkers bounds the per-worker utilization slots a Progress
// tracks; worker indices beyond the cap fold into the last slot so the
// tracker stays fixed-size and allocation-free on the update path.
const MaxProgressWorkers = 64

// Progress is the live-run telemetry counterpart of Collector: where the
// collector aggregates a run's history for post-hoc export, Progress holds
// the handful of atomically updated gauges a run needs to report its own
// state while it is still going — cells (coarse work items, e.g. one
// workload × config point) done/total, engine tasks consumed,
// nnz-weighted work done/total (the ETA source), per-worker busy time,
// and per-unit (per-figure) phase state.
//
// All methods are safe for concurrent use and for a nil receiver: a nil
// *Progress behaves like a no-op and its methods allocate nothing, so hot
// paths can tick unconditionally. Update methods on the hot path (TaskDone,
// CellDone) are single atomic adds.
type Progress struct {
	// now is the clock; tests inject a fake to pin ETA arithmetic.
	now func() time.Time

	startNanos atomic.Int64 // wall nanos at NewProgress

	cellsDone  atomic.Int64
	cellsTotal atomic.Int64
	tasksDone  atomic.Int64 // engine tasks consumed
	workDone   atomic.Int64 // nnz-weighted units completed
	workTotal  atomic.Int64 // nnz-weighted units registered so far

	workers [MaxProgressWorkers]workerSlot

	mu        sync.Mutex
	phase     string
	units     map[string]*unitState
	unitOrder []string
}

// workerSlot is one worker's accumulated busy time and completed cells.
type workerSlot struct {
	busyNanos atomic.Int64
	cells     atomic.Int64
}

// unitState is one named unit of the run (drtbench uses one per figure).
type unitState struct {
	startNanos int64
	endNanos   int64 // 0 while running
}

// NewProgress returns a tracker whose clock starts now.
func NewProgress() *Progress {
	p := &Progress{now: time.Now}
	p.startNanos.Store(p.now().UnixNano())
	return p
}

// active is the process-wide progress sink. The engine hot loops tick
// through it so live telemetry needs no plumbing through every options
// struct; when no tracker is installed the tick is a single atomic load.
var active atomic.Pointer[Progress]

// SetActive installs p as the process-wide progress sink (nil uninstalls).
func SetActive(p *Progress) { active.Store(p) }

// Active returns the installed progress sink, or nil. Callers may invoke
// any Progress method on the result unconditionally — nil is a no-op.
func Active() *Progress { return active.Load() }

// SetPhase names the run's current coarse phase ("prepare", "fig7", ...).
func (p *Progress) SetPhase(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phase = name
	p.mu.Unlock()
}

// AddCells registers n upcoming cells carrying work total nnz-weighted
// units. Totals accumulate: each experiment registers its own cells as it
// starts, so the ETA always reflects the work known so far.
func (p *Progress) AddCells(n, work int64) {
	if p == nil {
		return
	}
	p.cellsTotal.Add(n)
	p.workTotal.Add(work)
}

// CellDone records one finished cell: the worker that ran it, how long it
// was busy, and the cell's nnz weight (as registered through AddCells).
func (p *Progress) CellDone(worker int, busy time.Duration, work int64) {
	if p == nil {
		return
	}
	p.cellsDone.Add(1)
	p.workDone.Add(work)
	if worker < 0 {
		worker = 0
	}
	if worker >= MaxProgressWorkers {
		worker = MaxProgressWorkers - 1
	}
	p.workers[worker].busyNanos.Add(int64(busy))
	p.workers[worker].cells.Add(1)
}

// TaskDone ticks n engine tasks consumed — the simulator-side liveness
// signal between cell completions. One atomic add.
func (p *Progress) TaskDone(n int64) {
	if p == nil {
		return
	}
	p.tasksDone.Add(n)
}

// UnitStart marks a named unit (one figure/table in drtbench) as running.
func (p *Progress) UnitStart(name string) {
	if p == nil {
		return
	}
	now := p.now().UnixNano()
	p.mu.Lock()
	if p.units == nil {
		p.units = map[string]*unitState{}
	}
	if _, ok := p.units[name]; !ok {
		p.unitOrder = append(p.unitOrder, name)
	}
	p.units[name] = &unitState{startNanos: now}
	p.phase = name
	p.mu.Unlock()
}

// UnitEnd marks a named unit as done; unknown names are ignored.
func (p *Progress) UnitEnd(name string) {
	if p == nil {
		return
	}
	now := p.now().UnixNano()
	p.mu.Lock()
	if u := p.units[name]; u != nil && u.endNanos == 0 {
		u.endNanos = now
	}
	p.mu.Unlock()
}

// WorkerStat is one worker's live utilization.
type WorkerStat struct {
	Worker      int     `json:"worker"`
	Cells       int64   `json:"cells"`
	BusySeconds float64 `json:"busy_seconds"`
	// Utilization is busy time over run elapsed time, in [0, 1].
	Utilization float64 `json:"utilization"`
}

// UnitStat is one named unit's state in a snapshot.
type UnitStat struct {
	Name    string  `json:"name"`
	State   string  `json:"state"` // "running" or "done"
	Seconds float64 `json:"seconds"`
}

// ProgressSnapshot is the JSON-serializable live state of a run; the
// debug server's /progress endpoint returns one per request.
type ProgressSnapshot struct {
	Phase          string  `json:"phase,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	CellsDone      int64   `json:"cells_done"`
	CellsTotal     int64   `json:"cells_total"`
	TasksDone      int64   `json:"tasks_done"`
	WorkDone       int64   `json:"work_done"`
	WorkTotal      int64   `json:"work_total"`
	// ETASeconds estimates time to completion from the nnz-weighted work
	// rate (falling back to the cell rate when no weights were registered);
	// -1 when no estimate is possible yet.
	ETASeconds float64      `json:"eta_seconds"`
	Workers    []WorkerStat `json:"workers,omitempty"`
	Units      []UnitStat   `json:"units,omitempty"`
}

// Snapshot returns a consistent-enough copy of the live state (individual
// gauges are read atomically; the set is not a single linearization point,
// which live reporting tolerates).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{ETASeconds: -1}
	}
	now := p.now().UnixNano()
	elapsed := time.Duration(now - p.startNanos.Load())
	if elapsed < 0 {
		elapsed = 0
	}
	snap := ProgressSnapshot{
		ElapsedSeconds: elapsed.Seconds(),
		CellsDone:      p.cellsDone.Load(),
		CellsTotal:     p.cellsTotal.Load(),
		TasksDone:      p.tasksDone.Load(),
		WorkDone:       p.workDone.Load(),
		WorkTotal:      p.workTotal.Load(),
	}
	snap.ETASeconds = eta(elapsed, snap.WorkDone, snap.WorkTotal, snap.CellsDone, snap.CellsTotal)
	for i := range p.workers {
		cells := p.workers[i].cells.Load()
		busy := p.workers[i].busyNanos.Load()
		if cells == 0 && busy == 0 {
			continue
		}
		ws := WorkerStat{Worker: i, Cells: cells, BusySeconds: float64(busy) / 1e9}
		if elapsed > 0 {
			ws.Utilization = float64(busy) / float64(elapsed)
			if ws.Utilization > 1 {
				ws.Utilization = 1
			}
		}
		snap.Workers = append(snap.Workers, ws)
	}
	p.mu.Lock()
	snap.Phase = p.phase
	for _, name := range p.unitOrder {
		u := p.units[name]
		us := UnitStat{Name: name, State: "running"}
		end := u.endNanos
		if end != 0 {
			us.State = "done"
		} else {
			end = now
		}
		us.Seconds = time.Duration(end - u.startNanos).Seconds()
		snap.Units = append(snap.Units, us)
	}
	p.mu.Unlock()
	return snap
}

// eta is the estimator: remaining work over the observed work rate. With
// registered nnz weights the estimate is work-proportional (a long-tail
// heavy cell moves it more than a tiny one); otherwise it degrades to
// uniform cell weighting. At a fixed elapsed time the estimate is strictly
// decreasing in completed work — the monotonicity the property test pins.
func eta(elapsed time.Duration, workDone, workTotal, cellsDone, cellsTotal int64) float64 {
	done, total := workDone, workTotal
	if total <= 0 || done > total {
		done, total = cellsDone, cellsTotal
	}
	switch {
	case total <= 0:
		return -1
	case done >= total:
		return 0
	case done <= 0:
		return -1
	}
	return elapsed.Seconds() * float64(total-done) / float64(done)
}

// Line renders the one-line stderr progress report.
func (p *Progress) Line() string {
	s := p.Snapshot()
	line := fmt.Sprintf("progress: %d/%d cells", s.CellsDone, s.CellsTotal)
	if s.WorkTotal > 0 {
		line += fmt.Sprintf(" (%.0f%% nnz-weighted)", 100*float64(s.WorkDone)/float64(s.WorkTotal))
	}
	line += fmt.Sprintf(", %d tasks", s.TasksDone)
	if s.Phase != "" {
		line += ", in " + s.Phase
	}
	busy := 0
	for _, w := range s.Workers {
		if w.Utilization > 0.5 {
			busy++
		}
	}
	if len(s.Workers) > 0 {
		line += fmt.Sprintf(", %d/%d workers busy", busy, len(s.Workers))
	}
	line += fmt.Sprintf(", elapsed %s", time.Duration(s.ElapsedSeconds*float64(time.Second)).Round(time.Second))
	if s.ETASeconds >= 0 {
		line += fmt.Sprintf(", eta %s", time.Duration(s.ETASeconds*float64(time.Second)).Round(time.Second))
	}
	return line
}

// StartPrinter spawns a goroutine that writes the progress line to w every
// interval (default 1s when interval <= 0) and returns a stop function
// that prints one final line and joins the goroutine. A nil receiver
// returns a no-op stop.
func (p *Progress) StartPrinter(w io.Writer, interval time.Duration) func() {
	if p == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintln(w, p.Line())
			case <-stop:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			<-done
			fmt.Fprintln(w, p.Line())
		})
	}
}
