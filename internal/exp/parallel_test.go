package exp

import (
	"runtime"
	"sync"
	"testing"

	"drt/internal/accel"
	"drt/internal/obs"
)

// TestParallelDeterminism is the acceptance check for the parallel
// runner: the same experiment run sequentially and with eight workers
// under the LPT work-stealing schedule must render byte-identical tables.
// The ids cover the three fan-out shapes the runners use — per-entry
// cells (fig6), a flattened multi-axis grid with geomean slices over the
// flat results (fig16) and cells with internal candidate sweeps
// (abl-part) — picking the cheapest experiment of each shape so the run
// stays affordable under -race on one core. Summaries at block edges 1
// and 4 are compared per engine configuration by package tiling's
// TestBlockEdgeEngineIdentity.
func TestParallelDeterminism(t *testing.T) {
	for _, id := range []string{"fig6", "fig16", "abl-part"} {
		id := id
		t.Run(id, func(t *testing.T) {
			render := func(parallel int) string {
				c := NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Parallel: parallel})
				f, ok := c.Runner(id)
				if !ok {
					t.Fatalf("no runner for %s", id)
				}
				table, err := f()
				if err != nil {
					t.Fatal(err)
				}
				return table.String()
			}
			seq := render(1)
			if par8 := render(8); seq != par8 {
				t.Errorf("-parallel 8 output diverged from sequential:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", seq, par8)
			}
		})
	}
}

// TestWorkloadConfigResolvesParallel pins the worker count workload
// preparation sees: Options.Parallel of 0 or below means one worker per
// CPU for the reference kernels too, where accel.WorkloadConfig would
// read 0 as sequential.
func TestWorkloadConfigResolvesParallel(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{-1, runtime.GOMAXPROCS(0)},
		{1, 1},
		{3, 3},
	} {
		c := NewContext(Options{MicroTile: 8, Parallel: tc.in})
		cfg := c.workloadConfig()
		if cfg.Parallel != tc.want {
			t.Errorf("Parallel %d: workload config Parallel = %d, want %d", tc.in, cfg.Parallel, tc.want)
		}
		if cfg.MicroTile != 8 {
			t.Errorf("Parallel %d: workload config %+v, want micro tile 8", tc.in, cfg)
		}
	}
}

// TestSquareConcurrentOnce races many goroutines on the same workload
// entries and checks the singleflight memoization: every caller gets the
// same pointer, and the attached collector proves the expensive generation
// ran exactly once per entry (one "prepare" span and one spec meta key
// each).
func TestSquareConcurrentOnce(t *testing.T) {
	rec := obs.NewCollector()
	c := NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 4, Rec: rec})
	entries := c.fig6Entries()
	const goroutines = 16
	results := make([][]*accel.Workload, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := make([]*accel.Workload, len(entries))
			for i, e := range entries {
				w, err := c.Square(e)
				if err != nil {
					t.Errorf("Square(%s): %v", e.Name, err)
					return
				}
				ws[i] = w
			}
			results[g] = ws
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range entries {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d got a different workload pointer for %s", g, entries[i].Name)
			}
		}
	}
	if n := rec.SpanCount(); n != len(entries) {
		t.Errorf("prepare spans = %d, want %d (one generation per entry)", n, len(entries))
	}
	if specs := len(rec.Snapshot().Meta); specs != len(entries) {
		t.Errorf("spec meta entries = %d, want %d", specs, len(entries))
	}
}
