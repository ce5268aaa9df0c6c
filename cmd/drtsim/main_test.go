package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"drt/internal/accel"
	"drt/internal/exp"
	"drt/internal/obs"
	"drt/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestReportGolden pins the exact text report for one deterministic run:
// generation is seeded and the simulator is closed-form, so any diff here
// is a real behavior change (or an intentional one — regenerate with
// `go test ./cmd/drtsim -run Golden -update`).
func TestReportGolden(t *testing.T) {
	const (
		matrix    = "bcsstk17"
		accelName = "extensor-op-drt"
		scale     = 64
		microTile = 8
	)
	e, err := workloads.Lookup(matrix)
	if err != nil {
		t.Fatal(err)
	}
	a := e.Generate(scale)
	golden := filepath.Join("testdata", "report_bcsstk17.golden")
	w, err := accel.NewWorkload(e.Name, a, a, microTile)
	if err != nil {
		t.Fatal(err)
	}
	c := exp.NewContext(exp.Options{Scale: scale, MicroTile: microTile})
	m := c.Machine()
	// The golden file was produced by a sequential run; simulating with
	// four workers and still matching it byte-for-byte pins the parallel
	// paths' determinism guarantee.
	r, err := run(c, e.Name, accelName, w, m, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report(&buf, w, r, m)

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report diverged from golden file.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestAllAccelReportsGolden pins the text report of every -accel value on
// two matrices (bcsstk17, and cant, whose tiled designs run 72 to 446
// tasks), all against one golden file: any diff is a behavior change in
// some design's model. Regenerate with
// `go test ./cmd/drtsim -run AllAccel -update`.
func TestAllAccelReportsGolden(t *testing.T) {
	const scale, microTile = 64, 8
	golden := filepath.Join("testdata", "reports_all.golden")
	var buf bytes.Buffer
	for _, matrix := range []string{"bcsstk17", "cant"} {
		e, err := workloads.Lookup(matrix)
		if err != nil {
			t.Fatal(err)
		}
		a := e.Generate(scale)
		w, err := accel.NewWorkload(e.Name, a, a, microTile)
		if err != nil {
			t.Fatal(err)
		}
		c := exp.NewContext(exp.Options{Scale: scale, MicroTile: microTile})
		for _, name := range accelNames {
			r, err := run(c, e.Name, name, w, c.Machine(), 2, nil)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, matrix, err)
			}
			fmt.Fprintf(&buf, "== %s %s ==\n", matrix, name)
			report(&buf, w, r, c.Machine())
		}
	}
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("reports diverged from golden file.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestReportGoldenTraceStore pins the persistent store's zero-copy leg at
// the CLI surface: a cold run records the schedule into a fresh store, a
// warm run in a new context (empty in-memory tier, same store) replays it
// from disk — via the mmapped TraceView on hosts that support aliasing —
// and both reports must match the same golden bytes as the direct run.
func TestReportGoldenTraceStore(t *testing.T) {
	e, err := workloads.Lookup("bcsstk17")
	if err != nil {
		t.Fatal(err)
	}
	a := e.Generate(64)
	w, err := accel.NewWorkload(e.Name, a, a, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report_bcsstk17.golden"))
	if err != nil {
		t.Fatalf("missing golden file (run TestReportGolden with -update to create): %v", err)
	}
	dir := t.TempDir()
	for pass, name := range []string{"cold", "warm"} {
		rec := obs.NewCollector()
		c := exp.NewContext(exp.Options{Scale: 64, MicroTile: 8, TraceStore: dir, Rec: rec})
		r, err := run(c, e.Name, "extensor-op-drt", w, c.Machine(), 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		report(&buf, w, r, c.Machine())
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s store run diverged from golden file.\n--- got ---\n%s--- want ---\n%s", name, buf.Bytes(), want)
		}
		if pass == 0 {
			if got := rec.Counter("trace_store.misses"); got == 0 {
				t.Error("cold run reported no store miss")
			}
			continue
		}
		if got := rec.Counter("trace_store.hits"); got == 0 {
			t.Error("warm run did not replay from the store")
		}
		// linux/amd64 and linux/arm64 both satisfy the aliasing
		// preconditions, so the warm hit must be a zero-copy view there.
		if runtime.GOOS == "linux" {
			if got := rec.Counter("trace_view.opens"); got == 0 {
				t.Error("warm run on linux did not take the mmap TraceView path")
			}
			if got := rec.Counter("trace_view.bytes"); got == 0 {
				t.Error("warm run on linux served zero view bytes")
			}
		}
	}
}

// TestJSONMatchesText checks the acceptance invariant: the JSON report's
// exact traffic bytes are the same Result the text report formats, and the
// recorder's counters agree with both.
func TestJSONMatchesText(t *testing.T) {
	e, err := workloads.Lookup("bcsstk17")
	if err != nil {
		t.Fatal(err)
	}
	a := e.Generate(64)
	w, err := accel.NewWorkload(e.Name, a, a, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := exp.NewContext(exp.Options{Scale: 64, MicroTile: 8})
	m := c.Machine()
	rec := obs.NewCollector()
	r, err := run(c, e.Name, "extensor-op-drt", w, m, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"traffic.a_bytes": r.Traffic.A,
		"traffic.b_bytes": r.Traffic.B,
		"traffic.z_bytes": r.Traffic.Z,
		"engine.maccs":    r.MACCs,
	} {
		if got := rec.Counter(name); got != want {
			t.Errorf("counter %s = %d, result says %d", name, got, want)
		}
	}
}
