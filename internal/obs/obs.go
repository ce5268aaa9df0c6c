// Package obs is the zero-dependency instrumentation layer of the DRT
// pipeline: named counters, histograms (tile-size and task-cycle
// distributions), and hierarchical spans on two clock domains — the
// simulator's cycle timeline and the host's wall clock. Every modeled
// component (the task-stream engine, the tile extractor, the pipeline
// model, the accelerator front-ends and the CLIs) reports through a
// Recorder; the no-op default keeps the hot paths allocation-free when no
// recorder is attached, so instrumentation costs nothing unless a run asks
// for it.
//
// The Collector implementation aggregates everything in memory and exports
// it as a Chrome trace-event file (loadable in chrome://tracing or
// Perfetto) or a structured JSON snapshot.
package obs

// SpanID identifies an open wall-clock span returned by Begin. The no-op
// recorder returns a negative ID; End ignores IDs it did not issue.
type SpanID int64

// Recorder receives instrumentation events. All methods must be safe to
// call from concurrent goroutines and cheap enough for per-task hot paths;
// implementations aggregate rather than stream.
type Recorder interface {
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// Observe records one sample into the named histogram.
	Observe(name string, v float64)
	// Span records a completed span on the simulated-cycle timeline.
	// track selects the timeline row (see the Track constants); start and
	// dur are in simulated cycles.
	Span(cat, name string, track int, start, dur float64)
	// Begin opens a wall-clock span; End closes it. Begin/End pairs may
	// nest, forming the hierarchical phase timeline of a run.
	Begin(cat, name string) SpanID
	End(id SpanID)
	// SetMeta attaches a key/value pair of run metadata (matrix name,
	// scale, seed, accelerator config, VCS revision, ...).
	SetMeta(key, value string)
}

// Simulated-cycle timeline tracks. The pipeline stages reuse the sim
// package's stage indices; phase-summary spans get one track each so the
// per-run totals render side by side in a trace viewer.
const (
	TrackExtract = 0 // extraction pipeline stage
	TrackFetch   = 1 // DRAM fetch pipeline stage
	TrackCompute = 2 // PE compute pipeline stage

	TrackPhaseDRAM    = 8  // whole-run DRAM phase total
	TrackPhaseCompute = 9  // whole-run compute phase total
	TrackPhaseExtract = 10 // whole-run extraction phase total
)

// TrackName returns the display name of a simulated-cycle track.
func TrackName(track int) string {
	switch track {
	case TrackExtract:
		return "pipeline:extract"
	case TrackFetch:
		return "pipeline:fetch"
	case TrackCompute:
		return "pipeline:compute"
	case TrackPhaseDRAM:
		return "phase:dram"
	case TrackPhaseCompute:
		return "phase:compute"
	case TrackPhaseExtract:
		return "phase:extract"
	}
	return "track"
}

// Span categories used across the pipeline. Exported so call sites and
// exports agree on the vocabulary.
const (
	CatPhase      = "phase"      // run phases: per-run cycle totals and wall-clock stages
	CatTask       = "task"       // per-task fetch/compute occupancy
	CatExtraction = "extraction" // per-task tile-extraction occupancy
)

// Nop is the default recorder: it drops everything. Its methods allocate
// nothing, so instrumented hot paths are free when no recorder is attached
// (Nop is zero-width; converting it to the Recorder interface does not
// allocate either).
type Nop struct{}

var _ Recorder = Nop{}

// Count implements Recorder.
func (Nop) Count(string, int64) {}

// Observe implements Recorder.
func (Nop) Observe(string, float64) {}

// Span implements Recorder.
func (Nop) Span(string, string, int, float64, float64) {}

// Begin implements Recorder.
func (Nop) Begin(string, string) SpanID { return -1 }

// End implements Recorder.
func (Nop) End(SpanID) {}

// SetMeta implements Recorder.
func (Nop) SetMeta(string, string) {}

// OrNop returns r, or the no-op recorder when r is nil, so call sites can
// invoke Recorder methods unconditionally.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop{}
	}
	return r
}
