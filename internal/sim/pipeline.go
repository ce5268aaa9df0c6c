package sim

import "drt/internal/obs"

// Pipeline is a discrete-event model of the S-DOP task pipeline of
// Sec. 4.2.3: each task passes through the Extract (Aggregate + metadata
// build), Fetch (DRAM), and Compute stages. Stages are resources — one
// task occupies a stage at a time — and the buffers are double-buffered,
// so task i+1's extract/fetch may overlap task i's compute, but no stage
// may run two tasks at once and a task cannot compute before it is
// fetched.
//
// The phase-max model (Result.Cycles) is the steady-state limit of this
// pipeline; the event model additionally exposes fill/drain and
// imbalance effects, and is used by the pipeline ablation to check how
// far the phase-max approximation sits from an explicit schedule.
type Pipeline struct {
	// free[s] is the time at which stage s next becomes available.
	free [3]float64
	// done is the completion time of the most recent task's compute.
	done float64
	// Busy accumulates per-stage occupied cycles for utilization stats.
	Busy [3]float64
	// Tasks counts tasks pushed through the pipeline.
	Tasks int
	// Rec, when non-nil, receives one simulated-cycle span per occupied
	// stage per task: extraction spans on the extract track, task spans on
	// the fetch and compute tracks. Leave nil to keep Push allocation-free.
	Rec obs.Recorder
}

// Pipeline stages in dependency order.
const (
	StageExtract = iota
	StageFetch
	StageCompute
)

// StageName returns a stage's display name.
func StageName(s int) string {
	switch s {
	case StageExtract:
		return "extract"
	case StageFetch:
		return "fetch"
	case StageCompute:
		return "compute"
	}
	return "unknown"
}

// Push schedules one task with the given per-stage durations and returns
// its compute completion time. A zero-duration stage passes through
// without occupying the resource.
func (p *Pipeline) Push(extract, fetch, compute float64) float64 {
	p.Tasks++
	t := 0.0
	for s, dur := range [3]float64{extract, fetch, compute} {
		if dur < 0 {
			dur = 0
		}
		start := t
		if p.free[s] > start {
			start = p.free[s]
		}
		end := start + dur
		if dur > 0 {
			p.free[s] = end
			p.Busy[s] += dur
			if p.Rec != nil {
				cat := obs.CatTask
				if s == StageExtract {
					cat = obs.CatExtraction
				}
				p.Rec.Span(cat, StageName(s), s, start, dur)
			}
		}
		t = end
	}
	if t > p.done {
		p.done = t
	}
	return t
}

// Makespan returns the completion time of the last task's compute.
func (p *Pipeline) Makespan() float64 { return p.done }

// Utilization returns each stage's busy fraction of the makespan.
func (p *Pipeline) Utilization() [3]float64 {
	var u [3]float64
	if p.done == 0 {
		return u
	}
	for s := range u {
		u[s] = p.Busy[s] / p.done
	}
	return u
}
