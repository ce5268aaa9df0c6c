package accel

import (
	"math/rand"
	"reflect"
	"testing"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/obs"
	"drt/internal/sim"
)

// scaleMachine derives a random but reproducible machine variant: every
// speed knob Retime consumes is perturbed, including the PE count.
func scaleMachine(rng *rand.Rand) sim.Machine {
	m := sim.DefaultMachine()
	m.DRAMBandwidth *= 0.25 + 4*rng.Float64()
	m.DRAMLatency *= 0.5 + 2*rng.Float64()
	m.FreqHz *= 0.5 + rng.Float64()
	m.PEs = 1 << (3 + rng.Intn(5)) // 8..128
	return m
}

// TestRetimeMatchesRun is the tentpole's correctness pin: retiming a
// recorded schedule under (machine, intersect kind, extractor kind) must
// equal the direct RunTasks result bit-for-bit, for every combination of
// those knobs, on both the flat and the hierarchical (PE-level) engine.
func TestRetimeMatchesRun(t *testing.T) {
	a := gen.RMAT(256, 4000, 0.57, 0.19, 0.19, 7)
	b := gen.RMAT(256, 4000, 0.45, 0.25, 0.20, 8)
	w, err := NewWorkload("rmat256", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	flat := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    6 << 10, CapB: 6 << 10, CapO: 6 << 10,
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
	cases := []struct {
		name string
		base EngineOptions
	}{
		{"flat", flat},
		{"hierarchical", hier},
	}
	kinds := []sim.IntersectKind{sim.SkipBased, sim.Parallel, sim.SerialOptimal}
	exts := []extractor.Kind{extractor.ParallelExtractor, extractor.IdealExtractor}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trc, err := RecordTasks(w, tc.base)
			if err != nil {
				t.Fatal(err)
			}
			if trc.NumTasks() < 2 {
				t.Fatalf("fixture too small: %d non-empty tasks", trc.NumTasks())
			}
			rng := rand.New(rand.NewSource(42))
			machines := []sim.Machine{tc.base.Machine}
			for i := 0; i < 4; i++ {
				machines = append(machines, scaleMachine(rng))
			}
			for _, m := range machines {
				for _, ik := range kinds {
					for _, ek := range exts {
						opt := tc.base
						opt.Machine = m
						opt.Intersect = ik
						opt.Extractor = ek
						want, err := RunTasks(w, opt)
						if err != nil {
							t.Fatal(err)
						}
						got := Retime(trc, RetimeOptions{Machine: m, Intersect: ik, Extractor: ek})
						if got != want {
							t.Errorf("machine{bw=%.3g lat=%.3g pes=%d} %v/%v:\n got %+v\nwant %+v",
								m.DRAMBandwidth, m.DRAMLatency, m.PEs, ik, ek, got, want)
						}
					}
				}
			}
		})
	}
}

// TestRecordTasksResultUnchanged pins that capture is pure addition: the
// recording pass's own Result — recovered by retiming under the recording
// configuration — is what RunTasks returns, and recording twice yields
// identical traces (NumTasks as a proxy plus full retimed equality).
func TestRecordTasksResultUnchanged(t *testing.T) {
	a := gen.RMAT(128, 1500, 0.57, 0.19, 0.19, 3)
	b := gen.RMAT(128, 1500, 0.45, 0.25, 0.20, 4)
	w, err := NewWorkload("rmat128", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	opt := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    4 << 10, CapB: 4 << 10, CapO: 4 << 10,
		LoopOrder: []int{DimJ, DimK, DimI},
		Strategy:  core.GreedyContractedFirst,
		Intersect: sim.Parallel,
		Extractor: extractor.ParallelExtractor,
	}
	want, err := RunTasks(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := RecordTasks(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := RecordTasks(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	ro := RetimeOptions{Machine: opt.Machine, Intersect: opt.Intersect, Extractor: opt.Extractor}
	if got := Retime(tr1, ro); got != want {
		t.Errorf("retime(record) != run:\n got %+v\nwant %+v", got, want)
	}
	if g1, g2 := Retime(tr1, ro), Retime(tr2, ro); g1 != g2 {
		t.Errorf("two recordings retime differently:\n %+v\n %+v", g1, g2)
	}
}

// TestRecordRetimeObservesLikeRun pins that observing never depends on the
// path: recording with a collector attached and then retiming with the
// same collector publishes exactly the counters, histograms and span
// count of one direct RunTasks. The recording pass owns the capture-time
// observations, the replay the machine-dependent ones, and neither emits
// the other's.
func TestRecordRetimeObservesLikeRun(t *testing.T) {
	w := recordedWorkload(t)
	for name, opt := range recordedEngineOptions() {
		t.Run(name, func(t *testing.T) {
			direct := obs.NewCollector()
			run := opt
			run.Rec = direct
			if _, err := RunTasks(w, run); err != nil {
				t.Fatal(err)
			}

			split := obs.NewCollector()
			record := opt
			record.Rec = split
			tr, err := RecordTasks(w, record)
			if err != nil {
				t.Fatal(err)
			}
			Retime(tr, RetimeOptions{Machine: opt.Machine, Intersect: opt.Intersect, Extractor: opt.Extractor, Rec: split})

			want, got := direct.Snapshot(), split.Snapshot()
			if !reflect.DeepEqual(got.Counters, want.Counters) {
				t.Errorf("counters differ:\n got %v\nwant %v", got.Counters, want.Counters)
			}
			if !reflect.DeepEqual(got.Histograms, want.Histograms) {
				t.Errorf("histograms differ:\n got %v\nwant %v", got.Histograms, want.Histograms)
			}
			if gotN, wantN := split.SpanCount(), direct.SpanCount(); gotN != wantN {
				t.Errorf("record + retime emitted %d spans, run emitted %d", gotN, wantN)
			}
		})
	}
}
