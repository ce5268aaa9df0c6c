package accel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/sim"
)

func TestStreamedBBytes(t *testing.T) {
	// Each A element (i,k) streams B row k once, so a dense-banded A
	// with ~r entries per column streams roughly r passes over B's rows.
	m := gen.Banded(128, 6, 2, 0.9, 3)
	stream := StreamedBBytes(m, m)
	if stream < m.Footprint() {
		t.Fatalf("stream %d below one pass %d despite multiple references per row", stream, m.Footprint())
	}
	// An empty A streams nothing.
	empty := gen.Uniform(128, 128, 0, 1)
	if s := StreamedBBytes(empty, m); s != 0 {
		t.Fatalf("empty A streamed %d bytes", s)
	}
}

func TestSummaryRecordRoundTrip(t *testing.T) {
	want := WorkloadSummary{MACCs: 1 << 40, AFootprint: 7, BFootprint: 11, ZFootprint: 13, StreamedB: 1<<62 + 5}
	rec, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != summaryRecordSize {
		t.Fatalf("record is %d bytes, want %d", len(rec), summaryRecordSize)
	}
	var got WorkloadSummary
	if err := got.UnmarshalBinary(rec); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip gave %+v, want %+v", got, want)
	}
	bad := map[string][]byte{
		"truncated": rec[:len(rec)-1],
		"padded":    append(append([]byte{}, rec...), 0),
		"empty":     nil,
	}
	for _, i := range []int{0, 5, 9, 30, 50} { // magic, version, a field, the checksum
		b := append([]byte{}, rec...)
		b[i] ^= 0x40
		bad[fmt.Sprintf("byte %d flipped", i)] = b
	}
	neg := want
	neg.ZFootprint = -1
	if b, err := neg.MarshalBinary(); err == nil {
		bad["negative field"] = b
	}
	for name, b := range bad {
		var s WorkloadSummary
		if err := s.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: accepted %+v", name, s)
		}
	}
}

// deferredFixture builds one workload eagerly and returns it with a
// deferred twin whose build counts its calls.
func deferredFixture(t *testing.T, sum func(WorkloadSummary) WorkloadSummary) (eager, deferred *Workload, builds *atomic.Int64) {
	t.Helper()
	a := gen.RMAT(128, 1500, 0.57, 0.19, 0.19, 3)
	eager, err := NewWorkload("rmat128", a, a, 8)
	if err != nil {
		t.Fatal(err)
	}
	builds = new(atomic.Int64)
	deferred = Deferred(eager.Name, eager.MicroTile, sum(eager.Summary()), func() (*Workload, error) {
		builds.Add(1)
		return NewWorkload("rmat128", a, a, 8)
	})
	return eager, deferred, builds
}

func unchanged(s WorkloadSummary) WorkloadSummary { return s }

// flatEngine is a single-level DRT engine configuration small enough to
// tile the fixture into many tasks.
func flatEngine() EngineOptions {
	return EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    4 << 10, CapB: 4 << 10, CapO: 4 << 10,
		LoopOrder: []int{DimJ, DimK, DimI},
		Strategy:  core.GreedyContractedFirst,
		Intersect: sim.Parallel,
		Extractor: extractor.ParallelExtractor,
	}
}

// TestDeferredAnswersWithoutBuilding pins the deferral rule: MACCs and the
// summary accessors answer from the stored summary without a build, and an
// engine run builds the workload and matches the eager run exactly.
func TestDeferredAnswersWithoutBuilding(t *testing.T) {
	eager, w, builds := deferredFixture(t, unchanged)
	fa, fb := w.InputFootprint()
	if w.MACCs != eager.MACCs || w.Summary() != eager.Summary() ||
		[2]int64{fa, fb} != [2]int64{eager.Summary().AFootprint, eager.Summary().BFootprint} ||
		w.OutputFootprint() != eager.OutputFootprint() || w.StreamedBBytes() != eager.StreamedBBytes() {
		t.Fatalf("deferred summary %+v differs from eager %+v", w.Summary(), eager.Summary())
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("summary reads built the workload %d times", n)
	}
	opt := flatEngine()
	got, err := RunTasks(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunTasks(eager, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("deferred run %+v, eager run %+v", got, want)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("engine run built the workload %d times, want 1", n)
	}
}

// TestDeferredStaleSummaryStopsAnswering pins what a build does to a
// stored summary that disagrees with it: the accessors answer from the
// built workload from then on.
func TestDeferredStaleSummaryStopsAnswering(t *testing.T) {
	eager, w, _ := deferredFixture(t, func(s WorkloadSummary) WorkloadSummary {
		s.MACCs++
		s.StreamedB = 1
		return s
	})
	if w.Summary() == eager.Summary() {
		t.Fatal("fixture summary is not stale")
	}
	b, err := w.Built()
	if err != nil {
		t.Fatal(err)
	}
	if b.MACCs != eager.MACCs || w.Summary() != eager.Summary() {
		t.Fatalf("after the build the summary reads %+v, want %+v", w.Summary(), eager.Summary())
	}
}

// TestDeferredBuildsOnce races goroutines on a deferred workload's first
// use — engine runs, Retile, Built and summary reads — and checks that it
// was built exactly once and every caller saw the same build. Run it under
// -race.
func TestDeferredBuildsOnce(t *testing.T) {
	_, w, builds := deferredFixture(t, unchanged)
	opt := flatEngine()
	const goroutines = 8
	seen := make([]*Workload, goroutines)
	results := make([]sim.Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var err error
			switch g % 4 {
			case 0:
				results[g], err = RunTasks(w, opt)
			case 1:
				_, err = w.Retile(WorkloadConfig{MicroTile: 16})
			case 2:
				_ = w.Summary()
				_, _ = w.InputFootprint()
			}
			if err != nil {
				t.Error(err)
			}
			if seen[g], err = w.Built(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("deferred workload built %d times, want exactly 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if seen[g] != seen[0] {
			t.Fatalf("goroutine %d saw a different build", g)
		}
	}
	for g := 4; g < goroutines; g += 4 {
		if results[g] != results[0] {
			t.Fatalf("concurrent engine runs disagree:\n %+v\n %+v", results[g], results[0])
		}
	}
}
