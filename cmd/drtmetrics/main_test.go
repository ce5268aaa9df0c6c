package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// repoRoot holds the committed BENCH_*.json snapshots relative to this
// package.
const repoRoot = "../.."

func TestLoadSnapshotsCommitted(t *testing.T) {
	snaps, err := LoadSnapshots(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 {
		t.Fatalf("expected >=3 committed snapshots, got %d", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Date < snaps[i-1].Date {
			t.Errorf("snapshots out of order: %s (%s) before %s (%s)",
				snaps[i-1].File, snaps[i-1].Date, snaps[i].File, snaps[i].Date)
		}
	}
	if snaps[0].Benchmarks[0].Name == "" || snaps[0].Benchmarks[0].NsPerOp <= 0 {
		t.Errorf("first snapshot parsed badly: %+v", snaps[0].Benchmarks[0])
	}
}

// TestCheckFixedRegressionsStayFixed pins the analyzer against the
// committed history: Fig14Partition (14.44s -> 21.04s) and Fig17MicroTile
// (3.47s -> 8.50s) once drifted past the default +25% ns/op tolerance —
// the trace replay retimed partition sweeps from stale schedules and the
// micro-tile sweep rebuilt redundant grids. Both were fixed (schedule
// re-recording on retile, shared square-operand grids, row-streamed
// prefix-sum construction), so the latest committed snapshot must keep
// them inside tolerance; this test fails again if either regresses.
//
// Fig08MSBFS, AblAutoMicroTile and GridConstruction joined the same
// contract in 2026-08: all three spent time on the ci -warn
// acknowledgment list, were re-measured at +0.0% vs their series best,
// and came off it — so the committed history must keep them inside
// tolerance too.
func TestCheckFixedRegressionsStayFixed(t *testing.T) {
	snaps, err := LoadSnapshots(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	trends := Analyze(snaps, nil)
	tol := Tolerance{NsGrowth: 0.25, AllocFactor: 2.0}
	for _, tr := range trends {
		switch tr.Name {
		case "BenchmarkFig14Partition", "BenchmarkFig17MicroTile",
			"BenchmarkFig08MSBFS", "BenchmarkAblAutoMicroTile",
			"BenchmarkGridConstruction/dense", "BenchmarkGridConstruction/compressed":
			if r := tr.Regressed(tol); r != "" {
				t.Errorf("%s: flagged as regressed (%s); the fixes behind its removal from the -warn list must hold", tr.Name, r)
			}
		}
	}
}

func TestAnalyzeMatchAndOrder(t *testing.T) {
	snaps := []Snapshot{
		{Date: "2026-01-01", Benchmarks: []Point{
			{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 10},
			{Name: "BenchmarkB", NsPerOp: 50, AllocsPerOp: 5},
		}},
		{Date: "2026-01-02", Benchmarks: []Point{
			{Name: "BenchmarkA", NsPerOp: 90, AllocsPerOp: 10},
			{Name: "BenchmarkB", NsPerOp: 200, AllocsPerOp: 40},
		}},
	}
	trends := Analyze(snaps, regexp.MustCompile("BenchmarkB"))
	if len(trends) != 1 || trends[0].Name != "BenchmarkB" {
		t.Fatalf("match filter broken: %+v", trends)
	}
	tr := trends[0]
	if tr.BestNs != 50 || tr.WorstNs != 200 || tr.Latest().NsPerOp != 200 {
		t.Errorf("series stats wrong: best %v worst %v latest %v", tr.BestNs, tr.WorstNs, tr.Latest().NsPerOp)
	}
	r := tr.Regressed(Tolerance{NsGrowth: 0.25, AllocFactor: 2.0})
	if r == "" {
		t.Fatal("BenchmarkB (+300% ns, x8 allocs) not regressed")
	}
	// Both dimensions should be named.
	if !regexp.MustCompile(`ns/op.*allocs`).MatchString(r) {
		t.Errorf("regression reason %q missing a dimension", r)
	}

	trendsA := Analyze(snaps, regexp.MustCompile("BenchmarkA$"))
	if got := trendsA[0].Regressed(Tolerance{NsGrowth: 0.25, AllocFactor: 2.0}); got != "" {
		t.Errorf("BenchmarkA improved but flagged: %q", got)
	}
}

func TestNsGrowthAgainstBest(t *testing.T) {
	// Latest equal to best: growth 0 even when earlier points were worse.
	tr := Trend{Name: "X", Points: []Point{{NsPerOp: 300}, {NsPerOp: 100}}, BestNs: 100, WorstNs: 300}
	if g := tr.NsGrowth(); g != 0 {
		t.Errorf("latest==best growth = %v, want 0", g)
	}
	tr2 := Trend{Name: "Y", Points: []Point{{NsPerOp: 100}, {NsPerOp: 150}}, BestNs: 100, WorstNs: 150}
	if g := tr2.NsGrowth(); g < 0.499 || g > 0.501 {
		t.Errorf("growth = %v, want 0.5", g)
	}
}

// TestSnapshotHost reads the host stamp scripts/bench.sh writes, and reads
// a snapshot without one as unstamped.
func TestSnapshotHost(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"BENCH_2026-01-01.json": `{"date": "2026-01-01", "benchmarks": [{"name": "BenchmarkA", "ns_per_op": 1}]}`,
		"BENCH_2026-01-02.json": `{"date": "2026-01-02", "num_cpu": 2, "gomaxprocs": 1,
			"cpu_model": "Intel(R) Xeon(R) Processor", "benchmarks": [{"name": "BenchmarkA", "ns_per_op": 1}]}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := LoadSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"unstamped", "Intel(R) Xeon(R) Processor, 2 CPUs, GOMAXPROCS 1"}
	for i, s := range snaps {
		if got := s.Host(); got != want[i] {
			t.Errorf("%s: host %q, want %q", s.File, got, want[i])
		}
	}
}
