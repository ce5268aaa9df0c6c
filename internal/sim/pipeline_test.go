package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPipelineSingleTask(t *testing.T) {
	var p Pipeline
	end := p.Push(3, 5, 7)
	if end != 15 {
		t.Fatalf("single task end = %g, want 15 (serial fill)", end)
	}
	if p.Makespan() != 15 {
		t.Fatalf("makespan %g", p.Makespan())
	}
}

func TestPipelineSteadyStateIsBottleneckBound(t *testing.T) {
	// With many identical tasks, throughput converges to the slowest
	// stage: makespan → fill + N × max(stage).
	var p Pipeline
	const n = 1000
	for i := 0; i < n; i++ {
		p.Push(2, 5, 3)
	}
	want := float64(2+3) + n*5 // fill of the non-bottleneck stages + N × bottleneck
	if m := p.Makespan(); m != want {
		t.Fatalf("makespan = %g, want %g", m, want)
	}
	u := p.Utilization()
	if u[StageFetch] < 0.99 {
		t.Fatalf("bottleneck stage utilization %.3f, want ≈ 1", u[StageFetch])
	}
	if u[StageExtract] > 0.5 {
		t.Fatalf("light stage utilization %.3f, want < 0.5", u[StageExtract])
	}
}

func TestPipelineZeroStagesPassThrough(t *testing.T) {
	var p Pipeline
	p.Push(0, 0, 4)
	p.Push(0, 0, 4)
	if p.Makespan() != 8 {
		t.Fatalf("compute-only pipeline makespan %g, want 8", p.Makespan())
	}
	if p.Busy[StageExtract] != 0 {
		t.Fatal("zero-duration stage accumulated busy time")
	}
}

// TestPipelineBoundsQuick: makespan is at least the phase-max bound and at
// most the fully serial sum.
func TestPipelineBoundsQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var p Pipeline
		var sums [3]float64
		var serial float64
		for i := 0; i < int(n%40)+1; i++ {
			d := [3]float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
			p.Push(d[0], d[1], d[2])
			for s := range sums {
				sums[s] += d[s]
			}
			serial += d[0] + d[1] + d[2]
		}
		phaseMax := sums[0]
		for _, s := range sums[1:] {
			if s > phaseMax {
				phaseMax = s
			}
		}
		m := p.Makespan()
		return m >= phaseMax-1e-9 && m <= serial+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
