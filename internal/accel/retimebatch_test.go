package accel

import (
	"math/rand"
	"testing"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/sim"
)

// recordedWorkload builds the shared RMAT fixture the batch tests record.
func recordedWorkload(t *testing.T) *Workload {
	t.Helper()
	a := gen.RMAT(128, 1500, 0.57, 0.19, 0.19, 3)
	b := gen.RMAT(128, 1500, 0.45, 0.25, 0.20, 4)
	w, err := NewWorkload("rmat128", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// recordedEngineOptions covers both engine levels (flat and hierarchical),
// mirroring the recordedFixtures shapes.
func recordedEngineOptions() map[string]EngineOptions {
	flat := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    4 << 10, CapB: 4 << 10, CapO: 4 << 10,
		LoopOrder: []int{DimJ, DimK, DimI},
		Strategy:  core.GreedyContractedFirst,
		Intersect: sim.SkipBased,
		Extractor: extractor.ParallelExtractor,
	}
	hier := flat
	hier.PELevel = &PELevelOptions{
		CapA: 1 << 10, CapB: 1 << 10, CapO: 1 << 10,
		Strategy: core.GreedyContractedFirst,
	}
	return map[string]EngineOptions{"flat": flat, "hierarchical": hier}
}

// randConfigs draws a batch of pricing points covering every axis the
// lane-sharing replay groups by: random machines (including PE counts,
// so compute lanes both collide and split), all three intersect kinds
// and both extractor kinds. Duplicate configurations are deliberately
// likely — batches with repeated lanes are the interesting case.
func randConfigs(rng *rand.Rand, n int) []RetimeConfig {
	kinds := []sim.IntersectKind{sim.SkipBased, sim.Parallel, sim.SerialOptimal}
	exts := []extractor.Kind{extractor.ParallelExtractor, extractor.IdealExtractor}
	cfgs := make([]RetimeConfig, n)
	for i := range cfgs {
		cfgs[i] = RetimeConfig{
			Machine:   scaleMachine(rng),
			Intersect: kinds[rng.Intn(len(kinds))],
			Extractor: exts[rng.Intn(len(exts))],
		}
	}
	return cfgs
}

// TestRetimeBatchMatchesSequential is the batched tentpole's correctness
// pin: for every batch size 1–16, on both engine levels,
// RetimeBatch(configs)[i] must equal the sequential Retime of configs[i]
// bit-for-bit (sim.Result is comparable; == is exact float equality).
func TestRetimeBatchMatchesSequential(t *testing.T) {
	for name, opt := range recordedEngineOptions() {
		t.Run(name, func(t *testing.T) {
			w := recordedWorkload(t)
			tr, err := RecordTasks(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(77))
			for size := 1; size <= 16; size++ {
				cfgs := randConfigs(rng, size)
				got := tr.RetimeBatch(cfgs)
				for i, cfg := range cfgs {
					want := Retime(tr, RetimeOptions{
						Machine: cfg.Machine, Intersect: cfg.Intersect, Extractor: cfg.Extractor,
					})
					if got[i] != want {
						t.Fatalf("batch=%d config %d (%v/%v pes=%d):\n got %+v\nwant %+v",
							size, i, cfg.Intersect, cfg.Extractor, cfg.Machine.PEs, got[i], want)
					}
				}
			}
		})
	}
}

// TestRetimeBatchEmpty pins the trivial batch: no configurations, no
// results, no panic.
func TestRetimeBatchEmpty(t *testing.T) {
	tr := &Trace{Name: "empty"}
	if got := tr.RetimeBatch(nil); len(got) != 0 {
		t.Fatalf("RetimeBatch(nil) returned %d results", len(got))
	}
}

// TestRetimeAllocFree pins the pooled replay scratch: with the pool warm,
// sequential Retime performs no allocations per call, and RetimeBatch
// only allocates its result slice. The ceiling style follows
// TestDrainAllocFree in internal/kernels.
func TestRetimeAllocFree(t *testing.T) {
	w := recordedWorkload(t)
	for name, opt := range recordedEngineOptions() {
		t.Run(name, func(t *testing.T) {
			tr, err := RecordTasks(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			ro := RetimeOptions{Machine: opt.Machine, Intersect: opt.Intersect, Extractor: opt.Extractor}
			cfgs := randConfigs(rand.New(rand.NewSource(9)), 12)
			Retime(tr, ro)       // warm the pool
			tr.RetimeBatch(cfgs) // grow the lane scratch to this shape
			if raceEnabled {
				t.Skip("alloc ceiling skipped under -race: sync.Pool.Put drops a quarter of its items in race builds, so the pooled retime scratch reallocates")
			}
			if allocs := testing.AllocsPerRun(20, func() { Retime(tr, ro) }); allocs != 0 {
				t.Errorf("Retime allocates %.1f objects per call with warm pool, want 0", allocs)
			}
			allocs := testing.AllocsPerRun(20, func() { tr.RetimeBatch(cfgs) })
			if allocs > 1 {
				t.Errorf("RetimeBatch allocates %.1f objects per call with warm pool, want <= 1 (the result slice)", allocs)
			}
		})
	}
}
