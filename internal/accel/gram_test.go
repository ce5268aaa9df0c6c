package accel

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/sim"
	"drt/internal/tensor"
)

func gramOptions(buffer int64, s core.Strategy) GramOptions {
	m := sim.DefaultMachine()
	m.GlobalBuffer = buffer
	return GramOptions{
		Machine:   m,
		Partition: sim.DefaultPartition(),
		Strategy:  s,
		Intersect: sim.Parallel,
		Extractor: extractor.ParallelExtractor,
	}
}

func TestGramEngineCoversKernel(t *testing.T) {
	x := gen.Tensor3(96, 64, 64, 4000, 1)
	w, err := NewGramWorkload("t3", x, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Strategy{core.GreedyContractedFirst, core.Alternating, core.Static} {
		r, err := RunGram(w, gramOptions(32<<10, s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if r.MACCs != w.MACCs {
			t.Fatalf("%v covered %d MACCs, want %d", s, r.MACCs, w.MACCs)
		}
		if r.Traffic.Total() <= 0 {
			t.Fatalf("%v produced no traffic", s)
		}
	}
}

func TestGramDRTBeatsStatic(t *testing.T) {
	// Fig. 9 / Sec. 6.1.3: on sparse tensors DRT's three-dimensional
	// growth collects far more occupancy per buffer fill than a
	// dense-safe static cube.
	x := gen.Tensor3(128, 96, 96, 6000, 3)
	w, err := NewGramWorkload("t3", x, 8)
	if err != nil {
		t.Fatal(err)
	}
	drt, err := RunGram(w, gramOptions(32<<10, core.GreedyContractedFirst))
	if err != nil {
		t.Fatal(err)
	}
	suc, err := RunGram(w, gramOptions(32<<10, core.Static))
	if err != nil {
		t.Fatal(err)
	}
	if drt.Traffic.Total() >= suc.Traffic.Total() {
		t.Fatalf("DRT gram traffic %d not below static %d", drt.Traffic.Total(), suc.Traffic.Total())
	}
	if drt.AI() <= suc.AI() {
		t.Fatalf("DRT gram AI %.4f not above static %.4f", drt.AI(), suc.AI())
	}
}

func TestGramWorkloadValidation(t *testing.T) {
	x := gen.Tensor3(8, 8, 8, 20, 5)
	if _, err := NewGramWorkload("bad", x, 0); err == nil {
		t.Fatal("zero micro tile accepted")
	}
	w, err := NewGramWorkload("ok", x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.MACCs <= 0 {
		t.Fatal("reference Gram produced no work")
	}
	// Reference output must be symmetric (kernels tests check this in
	// depth; here we check the workload wiring).
	if !w.Z.EqualApprox(w.Z.Transpose(), 1e-9) {
		t.Fatal("gram reference not symmetric")
	}
}

// gramGoldenCase is one pinned RunGram configuration and its result.
type gramGoldenCase struct {
	Config string
	Result sim.Result
}

// gramGoldenRuns runs RunGram on two small tensors under every growth
// strategy and two buffers; at 16 KiB some macro tiles overflow.
func gramGoldenRuns(t *testing.T) []gramGoldenCase {
	t.Helper()
	tensors := []struct {
		name string
		x    *tensor.CSF3
	}{
		{"t96", gen.Tensor3(96, 64, 64, 4000, 1)},
		{"t128", gen.Tensor3(128, 96, 96, 6000, 3)},
	}
	var out []gramGoldenCase
	for _, tc := range tensors {
		w, err := NewGramWorkload(tc.name, tc.x, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []core.Strategy{core.GreedyContractedFirst, core.Alternating, core.Static} {
			for _, buf := range []int64{16 << 10, 64 << 10} {
				r, err := RunGram(w, gramOptions(buf, s))
				if err != nil {
					t.Fatalf("%s %v %d: %v", tc.name, s, buf, err)
				}
				out = append(out, gramGoldenCase{Config: fmt.Sprintf("%s %v %d", tc.name, s, buf), Result: r})
			}
		}
	}
	return out
}

// TestRunGramGolden pins every sim.Result field of RunGram against
// testdata/rungram.golden, gramGoldenRuns' results as JSON from the Gram
// engine that had its own task loop and pricing, before the kernel moved
// onto the shared engine loop and replay. PipelineCyclesExact and
// Overflows are exempt: that engine reported 0 for both, and the shared
// replay reports them as for every other engine run.
func TestRunGramGolden(t *testing.T) {
	got := gramGoldenRuns(t)
	b, err := os.ReadFile(filepath.Join("testdata", "rungram.golden"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var want []gramGoldenCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	overflows := 0
	for i := range got {
		g, w := got[i], want[i]
		overflows += g.Result.Overflows
		if g.Result.PipelineCyclesExact < g.Result.DRAMCycles || g.Result.DRAMCycles <= 0 {
			t.Errorf("%s: PipelineCyclesExact %g, DRAMCycles %g", g.Config, g.Result.PipelineCyclesExact, g.Result.DRAMCycles)
		}
		g.Result.PipelineCyclesExact, g.Result.Overflows = 0, 0
		w.Result.PipelineCyclesExact, w.Result.Overflows = 0, 0
		if g != w {
			t.Errorf("run %d diverged from golden:\ngot  %+v\nwant %+v", i, g, w)
		}
	}
	if overflows == 0 {
		t.Error("no run overflows a partition: the 16 KiB leg lost its point")
	}
}
