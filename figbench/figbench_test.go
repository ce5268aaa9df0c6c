package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"

	"drt/internal/exp"
	"drt/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the default-seed golden tables")

// TestMain serves the pass requests the benchmark's own child processes
// make: a test that calls run re-executes this test binary for each pass.
func TestMain(m *testing.M) {
	if childMain() {
		return
	}
	os.Exit(m.Run())
}

// testScale shrinks every workload so the tests run in seconds.
const testScale = 256

// TestGoldens runs every workload's figures at their benchmark scale with
// the default seed and compares the tables with the committed goldens
// byte for byte; -update rewrites them.
func TestGoldens(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("runs the full-size figures")
	}
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			mode := modeCold
			if s.Warm {
				mode = modeRecord
			}
			res, err := runPass(passRequest{Workload: s.Name, Mode: mode, Store: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			for i, fig := range s.Figs {
				if res.Errors[i] != "" {
					t.Fatalf("%s: %s", fig, res.Errors[i])
				}
				path := goldenPath(s.Name, fig)
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(res.Tables[i]), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if res.Tables[i] != string(want) {
					t.Errorf("%s differs from its golden:\n%s\nwant:\n%s", fig, res.Tables[i], want)
				}
			}
		})
	}
}

// TestSeededPrepFeedsRunners pins that the runners consume the seeded
// workloads the benchmark prepares: every entry builds exactly once, in the
// prep, and no runner builds one. Two seeds give tables with different
// values but the same rows and columns.
func TestSeededPrepFeedsRunners(t *testing.T) {
	s, _ := lookupSpec("fig14-cold")
	s.Scale = testScale
	tables := map[int64]string{}
	for _, seed := range []int64{0, 7} {
		rec := obs.NewCollector()
		opt := s.options("")
		opt.Rec = rec
		c := exp.NewContext(opt)
		entries := s.entries(seed)
		if err := prepare(c, entries); err != nil {
			t.Fatal(err)
		}
		if got := rec.Counter("exp.workload.misses"); got != int64(len(entries)) {
			t.Fatalf("seed %d: prep built %d workloads, want %d", seed, got, len(entries))
		}
		table, err := runFig(c, "fig14")
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Counter("exp.workload.misses"); got != int64(len(entries)) {
			t.Errorf("seed %d: the runner built %d workloads of its own", seed, got-int64(len(entries)))
		}
		if rec.Counter("exp.workload.hits") == 0 {
			t.Errorf("seed %d: the runner never looked up a prepared workload", seed)
		}
		tables[seed] = table
	}
	if tables[0] == tables[7] {
		t.Error("two seeds gave the same table")
	}
	if skeleton(tables[0]) != skeleton(tables[7]) {
		t.Errorf("two seeds gave tables of different shape:\n%s\n%s", tables[0], tables[7])
	}
}

// TestSkeleton pins that two tables differing only in their values, and so
// in their column widths and rule length, share a skeleton, and that a
// changed row does not.
func TestSkeleton(t *testing.T) {
	a := "matrix  x      y\n---------------\npwtk    0.337  0.151\n"
	b := "matrix  x       y\n-----------------\npwtk    0.3381  0.1732\n"
	if skeleton(a) != skeleton(b) {
		t.Errorf("value-only difference changed the skeleton:\n%q\n%q", skeleton(a), skeleton(b))
	}
	if c := strings.Replace(b, "pwtk", "cant", 1); skeleton(a) == skeleton(c) {
		t.Error("a renamed row kept the skeleton")
	}
}

// TestStolenSecondsNeverFalls checks the steal counter wall times subtract:
// it is never negative and never runs backwards.
func TestStolenSecondsNeverFalls(t *testing.T) {
	a := stolenSeconds()
	b := stolenSeconds()
	if a < 0 || b < a {
		t.Errorf("stolen seconds read %g then %g", a, b)
	}
}

// TestRunWritesOnlyItsWorkDir runs the warm workload (the one that writes
// trace stores) end to end and checks that nothing lands outside the work
// directory: the user cache dirs that hold .drtt and .drtb files, and the
// temp dir, stay empty, and the work directory keeps only the run record.
func TestRunWritesOnlyItsWorkDir(t *testing.T) {
	home, cache, tmp, work := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	t.Setenv("HOME", home)
	t.Setenv("XDG_CACHE_HOME", cache)
	t.Setenv("TMPDIR", tmp)
	t.Setenv("DRT_TRACE_CACHE", "")
	t.Setenv("DRT_OPERAND_CACHE", "off")
	out, err := run(runConfig{Workload: "retimed-warm", Work: work, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Fatalf("run failed: %+v", out)
	}
	for _, dir := range []string{home, cache, tmp} {
		if left := listFiles(t, dir); len(left) > 0 {
			t.Errorf("run wrote outside its work dir: %v", left)
		}
	}
	want := []string{filepath.Join("records", "retimed-warm-seed0-trace0.json")}
	if left := listFiles(t, work); !reflect.DeepEqual(left, want) {
		t.Errorf("work dir holds %v, want only %v", left, want)
	}
}

func listFiles(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			rel, _ := filepath.Rel(root, path)
			out = append(out, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestClassify(t *testing.T) {
	const (
		engine   = "drt/internal/accel.runTasks"
		pe       = "drt/internal/accel.runPELevel"
		next     = "drt/internal/core.(*Enumerator).Next"
		kernel   = "drt/internal/kernels.RestrictedGustavson[go.shape.int]"
		exptable = "drt/internal/exp.(*Context).Fig06"
	)
	cases := []struct {
		name  string
		stack []string // innermost first
		layer string
		pe    bool
	}{
		{"unnamed", []string{"main.main", "runtime.main"}, layerOther, false},
		{"engine self", []string{"drt/internal/accel.(*outputModel).touch", engine, exptable}, layerEngine, false},
		{"outer extraction", []string{"drt/internal/core.BuildTask", next, engine}, layerCoreOuter, false},
		{"PE extraction", []string{"drt/internal/core.BuildTask", next, pe, engine}, layerCorePE, true},
		{"outer kernel", []string{"drt/internal/kernels.(*SPA).Add", kernel, engine}, layerRestricted, false},
		{"PE kernel", []string{kernel, pe, engine}, layerRestricted, true},
		{"innermost entry wins", []string{"drt/internal/tiling.NewSummaryGrid[go.shape.int]", "drt/internal/kernels.Gustavson[go.shape.int]", "drt/internal/gen.Spec.Build"}, layerTiling, false},
		{"reference kernel", []string{"drt/internal/kernels.Gustavson[go.shape.int]", "drt/internal/gen.Spec.Build"}, layerGustavson, false},
		{"generator", []string{"drt/internal/gen.RMAT", "drt/internal/gen.Spec.Build", exptable}, layerGen, false},
		{"mapped replay", []string{"drt/internal/accel.(*Trace).RetimeBatch", "drt/internal/exp.(*Context).runExtensorBatch"}, layerTrace, false},
		{"codec", []string{"drt/internal/accel.validateTrace", "drt/internal/accel.OpenTrace", "drt/internal/exp.(*Context).loadStored"}, layerCodec, false},
		{"gc assist beats its caller", []string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", kernel, engine}, layerGC, false},
		{"background gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC, false},
	}
	for _, c := range cases {
		layer, pe := classify(c.stack)
		if layer != c.layer || pe != c.pe {
			t.Errorf("%s: got (%s, %v), want (%s, %v)", c.name, layer, pe, c.layer, c.pe)
		}
	}
	// Every entry point maps to its own layer when it is alone on the stack.
	for fn, want := range entryLayer {
		if want == "core" {
			want = layerCoreOuter
		}
		if got, _ := classify([]string{fn}); got != want {
			t.Errorf("%s: got %s, want %s", fn, got, want)
		}
	}
}

// TestAttributionSumsToProfile profiles a real pass and checks that the
// layers' busy seconds add up to the profile's total, with most samples
// named.
func TestAttributionSumsToProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	_, err := runPass(passRequest{Workload: "fig14-cold", Mode: modeCold})
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	a := newAttribution()
	if err := a.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if a.total == 0 {
		t.Skip("profile caught no samples")
	}
	var sum float64
	for _, l := range layerOrder {
		sum += a.busy[l]
	}
	if math.Abs(sum-a.total) > 1e-9*a.total {
		t.Errorf("layers sum to %g s, profile total %g s", sum, a.total)
	}
	if len(a.busy) > len(layerOrder) {
		t.Errorf("samples landed outside the known layers: %v", a.busy)
	}
	if a.restrictedPE > a.busy[layerRestricted] {
		t.Errorf("PE share %g exceeds the kernel's %g", a.restrictedPE, a.busy[layerRestricted])
	}
}

// TestLayerPassRepeats runs the layer pass (whose self-checks compare the
// kernel's MACCs over outer tasks and over PE sub-tasks with the
// workload's, and the outer task count with the engine's) twice per
// workload and requires identical counts.
func TestLayerPassRepeats(t *testing.T) {
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			var runs [2]layerCounts
			for i := range runs {
				lc, err := layerPass(s, testScale, 3, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				lc.RunS, lc.RecordS = 0, 0
				runs[i] = lc
			}
			if runs[0] != runs[1] {
				t.Errorf("counts differ between runs:\n%+v\n%+v", runs[0], runs[1])
			}
			lc := runs[0]
			if lc.Outer.Tasks == 0 || lc.Restricted.Calls == 0 || lc.GenNNZ == 0 {
				t.Errorf("layer pass counted no work: %+v", lc)
			}
			if s.Warm && (lc.TraceItems == 0 || lc.BytesEncoded == 0) {
				t.Errorf("warm layer pass recorded no traces: %+v", lc)
			}
		})
	}
}
