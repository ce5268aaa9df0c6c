package accel

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"drt/internal/extractor"
	"drt/internal/sim"
)

// writeTempTrace serializes tr to a fresh .drtt file and returns the path.
func writeTempTrace(t *testing.T, tr *Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.drtt")
	if err := WriteTraceFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// viewEqualsDecoded prices a TraceView of tr's file image against the
// original trace — sequentially and batched — under random machines, and
// fails on any bit difference. This is the zero-copy tentpole's
// correctness pin: aliased file bytes must be indistinguishable from a
// heap decode.
func viewEqualsDecoded(t *testing.T, tr *Trace, rng *rand.Rand) {
	t.Helper()
	path := writeTempTrace(t, tr)
	v, err := OpenTrace(path)
	if err != nil {
		t.Fatalf("OpenTrace: %v", err)
	}
	defer v.Close()
	if traceAliasOK && runtime.GOOS != "windows" && !v.Mapped() {
		t.Error("alias-capable host did not take the mmap path")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if v.Bytes() != st.Size() {
		t.Errorf("view covers %d bytes, file is %d", v.Bytes(), st.Size())
	}
	kinds := []sim.IntersectKind{sim.SkipBased, sim.Parallel, sim.SerialOptimal}
	exts := []extractor.Kind{extractor.ParallelExtractor, extractor.IdealExtractor}
	for i := 0; i < 3; i++ {
		ro := RetimeOptions{
			Machine:   scaleMachine(rng),
			Intersect: kinds[rng.Intn(len(kinds))],
			Extractor: exts[rng.Intn(len(exts))],
		}
		if got, want := Retime(v.Trace(), ro), Retime(tr, ro); got != want {
			t.Fatalf("view retime diverges (%v/%v):\n got %+v\nwant %+v", ro.Intersect, ro.Extractor, got, want)
		}
	}
	cfgs := randConfigs(rng, 8)
	got := v.Trace().RetimeBatch(cfgs)
	for i, cfg := range cfgs {
		want := Retime(tr, RetimeOptions{Machine: cfg.Machine, Intersect: cfg.Intersect, Extractor: cfg.Extractor})
		if got[i] != want {
			t.Fatalf("view batch config %d diverges:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

// TestTraceViewRecordedEquality prices views of real recorded schedules
// (both engine levels) against their in-memory traces.
func TestTraceViewRecordedEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, tr := range recordedFixtures(t) {
		t.Run(name, func(t *testing.T) { viewEqualsDecoded(t, tr, rng) })
	}
}

// TestTraceViewFuzzedEquality prices views of structurally valid fuzzed
// traces, covering window shapes no engine run produces.
func TestTraceViewFuzzedEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for it := 0; it < 25; it++ {
		viewEqualsDecoded(t, fuzzTrace(rng), rng)
	}
}

// TestTraceViewCorrupt pins that the view opener validates exactly like
// the heap decoder: truncation, garbage, and unknown distribution flags
// are errors on the mmap path, never scrambled schedules.
func TestTraceViewCorrupt(t *testing.T) {
	fixtures := recordedFixtures(t)
	t.Run("missing", func(t *testing.T) {
		if _, err := OpenTrace(filepath.Join(t.TempDir(), "absent.drtt")); !os.IsNotExist(err) {
			t.Fatalf("missing file: err = %v, want IsNotExist", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		path := writeTempTrace(t, fixtures["flat"])
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob[:len(blob)-9], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenTrace(path); err == nil {
			t.Fatal("truncated file opened without error")
		}
	})
	t.Run("garbage", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "garbage.drtt")
		blob := make([]byte, 4096)
		rand.New(rand.NewSource(3)).Read(blob)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenTrace(path); err == nil {
			t.Fatal("garbage opened without error")
		}
	})
	t.Run("dist-flags", func(t *testing.T) {
		tr := fixtures["hierarchical"]
		if len(tr.dists) == 0 {
			t.Skip("fixture recorded no distribution events")
		}
		path := writeTempTrace(t, tr)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The distribution section is the file tail: n × (footprint,
		// flags) records. Set an undefined flag bit in the last record.
		blob[len(blob)-7] |= 0x80
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenTrace(path); err == nil {
			t.Fatal("undefined distribution flag opened without error")
		}
	})
}
