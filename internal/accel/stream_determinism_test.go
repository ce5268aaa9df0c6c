package accel

import (
	"testing"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/obs"
	"drt/internal/sim"
)

// TestRunTasksStreamDeterminism pins the pipeline's core invariant at the
// engine level: streamed (and sharded) extraction must yield exactly the
// same Result as the inline enumerator at any worker count — every field,
// including the extraction-cycle totals fed by per-task Probes/ScanTiles.
func TestRunTasksStreamDeterminism(t *testing.T) {
	a := gen.RMAT(256, 4000, 0.57, 0.19, 0.19, 7)
	b := gen.RMAT(256, 4000, 0.45, 0.25, 0.20, 8)
	w, err := NewWorkload("rmat256", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    6 << 10, CapB: 6 << 10, CapO: 6 << 10,
		LoopOrder: []int{DimJ, DimK, DimI},
		Strategy:  core.GreedyContractedFirst,
		Intersect: sim.Parallel,
		Extractor: extractor.ParallelExtractor,
		PELevel: &PELevelOptions{
			CapA: 1 << 10, CapB: 1 << 10, CapO: 1 << 10,
			Strategy: core.GreedyContractedFirst,
		},
	}
	want, err := RunTasks(w, base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Tasks < 4 {
		t.Fatalf("fixture too small to exercise sharding: %d tasks", want.Tasks)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		opt := base
		opt.Stream = true
		opt.Parallel = workers
		got, err := RunTasks(w, opt)
		if err != nil {
			t.Fatalf("stream parallel=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("stream parallel=%d diverged:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestRunTasksPublishesExtractCounters checks that a hierarchical run
// publishes the builder memos' counters, inline and sharded: the PE
// level's K→I→J re-tiling replays B's J sweeps from the sweep log.
func TestRunTasksPublishesExtractCounters(t *testing.T) {
	a := gen.RMAT(256, 4000, 0.57, 0.19, 0.19, 7)
	b := gen.RMAT(256, 4000, 0.45, 0.25, 0.20, 8)
	w, err := NewWorkload("rmat256", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3} {
		rec := obs.NewCollector()
		opt := EngineOptions{
			Machine: sim.DefaultMachine(),
			CapA:    6 << 10, CapB: 6 << 10, CapO: 6 << 10,
			LoopOrder: []int{DimJ, DimK, DimI},
			Strategy:  core.GreedyContractedFirst,
			Intersect: sim.Parallel,
			Extractor: extractor.ParallelExtractor,
			PELevel: &PELevelOptions{
				CapA: 1 << 10, CapB: 1 << 10, CapO: 1 << 10,
				Strategy: core.GreedyContractedFirst,
			},
			Stream:   workers > 0,
			Parallel: workers,
			Rec:      rec,
		}
		if _, err := RunTasks(w, opt); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"extract.steplog.hits", "extract.steplog.misses", "extract.boxcache.misses"} {
			if rec.Counter(name) <= 0 {
				t.Errorf("workers=%d: %s = %d, want > 0", workers, name, rec.Counter(name))
			}
		}
	}
}

// TestRunGramStreamDeterminism covers the 4-dimensional Gram engine: its
// kernel shards along the contracted J dimension, the hardest case for the
// stitcher (both operands rebuild on every outer step).
func TestRunGramStreamDeterminism(t *testing.T) {
	x := gen.Tensor3(48, 48, 48, 3000, 11)
	gw, err := NewGramWorkload("t3", x, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.DefaultMachine()
	m.GlobalBuffer = 64 << 10 // small buffer → many tasks
	base := GramOptions{
		Machine:   m,
		Partition: sim.DefaultPartition(),
		Strategy:  core.GreedyContractedFirst,
		Intersect: sim.Parallel,
		Extractor: extractor.ParallelExtractor,
	}
	want, err := RunGram(gw, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opt := base
		opt.Stream = true
		opt.Parallel = workers
		got, err := RunGram(gw, opt)
		if err != nil {
			t.Fatalf("stream parallel=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("gram stream parallel=%d diverged:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}
