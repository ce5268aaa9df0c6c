package exp

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"drt/internal/accel"
	"drt/internal/gen"
	"drt/internal/obs"
)

// summaryFiles lists the .drtw summary records in a store directory.
func summaryFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.drtw"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// readSummaryFile decodes one stored summary record.
func readSummaryFile(path string) (accel.WorkloadSummary, error) {
	var s accel.WorkloadSummary
	b, err := os.ReadFile(path)
	if err == nil {
		err = s.UnmarshalBinary(b)
	}
	return s, err
}

// renderAll renders every runner in Experiments() in one context.
func renderAll(t *testing.T, opt Options) map[string]string {
	t.Helper()
	c := NewContext(opt)
	out := map[string]string{}
	for _, id := range Experiments() {
		f, _ := c.Runner(id)
		table, err := f()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out[id] = table.String()
	}
	return out
}

// TestStoreDeferralIdentity renders every runner three times — store off,
// then cold and warm against one fresh store — and requires identical
// tables. The warm context defers every S² workload behind its stored
// summary, so a consumer that reads a deferred workload's operands or
// grids without building it first fails here.
func TestStoreDeferralIdentity(t *testing.T) {
	dir := t.TempDir()
	base := Options{Scale: 256, MicroTile: 8, MaxWorkloads: 2, NoOperandCache: true}
	off := renderAll(t, base)
	stored := base
	stored.TraceStore = dir
	cold := renderAll(t, stored)
	if len(summaryFiles(t, dir)) == 0 {
		t.Fatal("cold run stored no summary records")
	}
	rec := obs.NewCollector()
	stored.Rec = rec
	warm := renderAll(t, stored)
	if rec.Counter("summary_store.hits") == 0 || rec.Counter("summary_store.misses") != 0 {
		t.Errorf("warm run: summary hits %d, misses %d; want hits and no misses",
			rec.Counter("summary_store.hits"), rec.Counter("summary_store.misses"))
	}
	for _, id := range Experiments() {
		if cold[id] != off[id] {
			t.Errorf("%s: cold store table differs from store off:\n%s\nwant:\n%s", id, cold[id], off[id])
		}
		if warm[id] != off[id] {
			t.Errorf("%s: warm store table differs from store off:\n%s\nwant:\n%s", id, warm[id], off[id])
		}
	}
}

// renderFigs renders the retimed sweep figures (Fig. 12, 15, 16) in one
// fresh context.
func renderFigs(t *testing.T, opt Options) string {
	t.Helper()
	c := NewContext(opt)
	var out strings.Builder
	for _, id := range []string{"fig12", "fig15", "fig16"} {
		f, _ := c.Runner(id)
		table, err := f()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out.WriteString(table.String())
	}
	return out.String()
}

// TestWarmReplayBuildsNoWorkload pins the tentpole's saving: a fresh
// context rerunning the store-served figures after a cold run builds no
// workload at all, finds every summary record, and prints the same tables.
func TestWarmReplayBuildsNoWorkload(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Scale: 64, MicroTile: 8, MaxWorkloads: 3, NoOperandCache: true, TraceStore: dir}
	coldRec := obs.NewCollector()
	opt.Rec = coldRec
	cold := renderFigs(t, opt)
	if got, want := coldRec.Counter("exp.workload.builds"), coldRec.Counter("exp.workload.misses"); got != want || got == 0 {
		t.Errorf("cold run built %d workloads for %d memo misses", got, want)
	}
	rec := obs.NewCollector()
	opt.Rec = rec
	if warm := renderFigs(t, opt); warm != cold {
		t.Errorf("warm tables differ from cold:\n%s\nwant:\n%s", warm, cold)
	}
	if n := rec.Counter("exp.workload.builds"); n != 0 {
		t.Errorf("warm run built %d workloads, want 0", n)
	}
	if n := rec.Counter("exp.workload.misses"); n == 0 || rec.Counter("summary_store.hits") != n || rec.Counter("summary_store.misses") != 0 {
		t.Errorf("warm run: %d memo misses, %d summary hits, %d summary misses; want one hit per miss",
			n, rec.Counter("summary_store.hits"), rec.Counter("summary_store.misses"))
	}
	if rec.Counter("trace_store.misses") != 0 || rec.Counter("exp.tracecache.direct") != 0 {
		t.Error("warm run did not serve every schedule from the store")
	}
}

// TestSummaryRecordMisses pins the record's miss semantics: a record
// damaged in place, or a well-formed one whose counts disagree with the
// workload a later build produces, is purged and rewritten, counted as a
// summary_store miss, and never changes a table.
func TestSummaryRecordMisses(t *testing.T) {
	base := Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, NoOperandCache: true}
	want := renderFigs(t, base)
	fixture := func(t *testing.T) (Options, []string) {
		opt := base
		opt.TraceStore = t.TempDir()
		renderFigs(t, opt)
		recs := summaryFiles(t, opt.TraceStore)
		if len(recs) == 0 {
			t.Fatal("fixture stored no summary records")
		}
		return opt, recs
	}
	decode := func(t *testing.T, path string) accel.WorkloadSummary {
		s, err := readSummaryFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return s
	}

	t.Run("damaged", func(t *testing.T) {
		opt, recs := fixture(t)
		good := map[string]accel.WorkloadSummary{}
		for _, p := range recs {
			good[p] = decode(t, p)
			b, _ := os.ReadFile(p)
			b[8]++ // MACCs, with the checksum left as it was
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec := obs.NewCollector()
		opt.Rec = rec
		if got := renderFigs(t, opt); got != want {
			t.Errorf("damaged records changed the tables:\n%s\nwant:\n%s", got, want)
		}
		if rec.Counter("summary_store.hits") != 0 || rec.Counter("summary_store.misses") != int64(len(recs)) {
			t.Errorf("summary hits %d misses %d, want 0 and %d", rec.Counter("summary_store.hits"), rec.Counter("summary_store.misses"), len(recs))
		}
		for p, s := range good {
			if got := decode(t, p); got != s {
				t.Errorf("%s rewritten as %+v, want %+v", p, got, s)
			}
		}
	})

	t.Run("disagreeing", func(t *testing.T) {
		opt, recs := fixture(t)
		good := map[string]accel.WorkloadSummary{}
		for _, p := range recs {
			s := decode(t, p)
			good[p] = s
			s.MACCs++
			s.StreamedB++
			b, _ := s.MarshalBinary()
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Without its schedules the run must build every workload: that
		// build is what exposes the records.
		for _, p := range storeFiles(t, opt.TraceStore) {
			os.Remove(p)
		}
		rec := obs.NewCollector()
		opt.Rec = rec
		c := NewContext(opt)
		table, err := c.Fig15()
		if err != nil {
			t.Fatal(err)
		}
		offTable, err := NewContext(base).Fig15()
		if err != nil {
			t.Fatal(err)
		}
		if table.String() != offTable.String() {
			t.Errorf("disagreeing records changed Fig. 15:\n%s\nwant:\n%s", table, offTable)
		}
		if rec.Counter("summary_store.hits") != int64(len(recs)) || rec.Counter("summary_store.misses") != int64(len(recs)) {
			t.Errorf("summary hits %d misses %d, want %d each (a hit the build disproved)",
				rec.Counter("summary_store.hits"), rec.Counter("summary_store.misses"), len(recs))
		}
		for p, s := range good {
			if got := decode(t, p); got != s {
				t.Errorf("%s rewritten as %+v, want %+v", p, got, s)
			}
		}
		opt.Rec = nil
		if got := renderFigs(t, opt); got != want {
			t.Errorf("rewritten records changed the tables:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestSummaryKeying pins what a summary record's key separates: the
// Context-wide shaping knobs, the workload name and its generator spec.
func TestSummaryKeying(t *testing.T) {
	spec := gen.Spec{Kind: "uniform", Rows: 64, Cols: 64, NNZ: 256, Seed: 1}
	base := Options{Scale: 64, MicroTile: 8, TraceStore: "/nonexistent"}
	key := NewContext(base).summaryKey("w", spec)
	if key == "" || NewContext(base).summaryKey("w", spec) != key {
		t.Fatalf("summary key %q is not deterministic", key)
	}
	if NewContext(Options{Scale: 64, MicroTile: 8}).summaryKey("w", spec) != "" {
		t.Error("store off produced a summary key")
	}
	other := spec
	other.Seed++
	scale := base
	scale.Scale = 32
	micro := base
	micro.MicroTile = 16
	for name, k := range map[string]string{
		"seed":      NewContext(base).summaryKey("w", other),
		"name":      NewContext(base).summaryKey("v", spec),
		"scale":     NewContext(scale).summaryKey("w", spec),
		"microtile": NewContext(micro).summaryKey("w", spec),
	} {
		if k == key {
			t.Errorf("%s change shared the summary key", name)
		}
	}
}

// storeChildEnv carries a child process's request in
// TestTraceStoreCrossProcess: the store directory and the output file.
const storeChildEnv = "DRT_EXP_STORE_CHILD"

// crossProcessOptions is the configuration both child processes and the
// store-off reference render with. The children also lower
// traceStoreBudget far below what the figures record, so every store
// evicts.
func crossProcessOptions(dir string) Options {
	return Options{Scale: 64, MicroTile: 8, MaxWorkloads: 3, Parallel: 2, NoOperandCache: true,
		TraceStore: dir}
}

// childReport is what one child process hands back.
type childReport struct {
	Tables   []string
	Counters map[string]int64
}

// TestTraceStoreCrossProcess re-executes this test binary as two child
// processes that render the same figures into one store directory at
// once, each three times in fresh contexts, under a budget small enough
// that their stores keep evicting each other's entries. Both must exit 0
// with the store-off tables, and no temp or partial file may ever be
// served: every entry left in the store decodes, and no temp file is left.
func TestTraceStoreCrossProcess(t *testing.T) {
	if req := os.Getenv(storeChildEnv); req != "" {
		dir, out, _ := strings.Cut(req, "|")
		budget := traceStoreBudget
		traceStoreBudget = 16 << 10
		defer func() { traceStoreBudget = budget }()
		// An entry that exists but does not decode is one a reader saw
		// before it was complete.
		var undecodable atomic.Int64
		open := openTraceFile
		openTraceFile = func(path string) (*accel.TraceView, error) {
			v, err := open(path)
			if err != nil && !os.IsNotExist(err) {
				undecodable.Add(1)
			}
			return v, err
		}
		defer func() { openTraceFile = open }()
		rec := obs.NewCollector()
		opt := crossProcessOptions(dir)
		opt.Rec = rec
		var r childReport
		for i := 0; i < 3; i++ {
			r.Tables = append(r.Tables, renderFigs(t, opt))
		}
		r.Counters = rec.Snapshot().Counters
		r.Counters["undecodable_traces"] = undecodable.Load()
		blob, _ := json.Marshal(r)
		if err := os.WriteFile(out, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if testing.Short() {
		t.Skip("spawns two child processes")
	}
	dir := filepath.Join(t.TempDir(), "store")
	off := crossProcessOptions("")
	want := renderFigs(t, off)

	reports := make([]childReport, 2)
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := filepath.Join(t.TempDir(), "report.json")
			cmd := exec.Command(os.Args[0], "-test.run=^TestTraceStoreCrossProcess$", "-test.count=1")
			cmd.Env = append(os.Environ(), storeChildEnv+"="+dir+"|"+out)
			if b, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("child %d: %v\n%s", i, err, b)
				return
			}
			blob, err := os.ReadFile(out)
			if err == nil {
				err = json.Unmarshal(blob, &reports[i])
			}
			if err != nil {
				t.Errorf("child %d report: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var evictions, hits int64
	for i, r := range reports {
		for j, got := range r.Tables {
			if got != want {
				t.Errorf("child %d render %d differs from the store-off tables:\n%s\nwant:\n%s", i, j, got, want)
			}
		}
		evictions += r.Counters["trace_store.evictions"]
		hits += r.Counters["trace_store.hits"] + r.Counters["summary_store.hits"]
		if n := r.Counters["undecodable_traces"]; n != 0 {
			t.Errorf("child %d opened %d stored traces that did not decode", i, n)
		}
		// Summary records are never evicted at this budget, so only the
		// first render can miss one: any later miss read a bad record.
		if n := r.Counters["summary_store.misses"]; n > 3 {
			t.Errorf("child %d missed %d summary records, want at most 3", i, n)
		}
	}
	if evictions == 0 || hits == 0 {
		t.Errorf("store saw %d evictions and %d hits; the test needs both", evictions, hits)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		path := filepath.Join(dir, de.Name())
		switch {
		case strings.HasPrefix(de.Name(), "."):
			t.Errorf("temp file %s left in the store", de.Name())
		case strings.HasSuffix(de.Name(), ".drtt"):
			v, err := accel.OpenTrace(path)
			if err != nil {
				t.Errorf("stored trace does not decode: %v", err)
				continue
			}
			v.Close()
		case strings.HasSuffix(de.Name(), ".drtw"):
			if _, err := readSummaryFile(path); err != nil {
				t.Errorf("stored summary does not decode: %v", err)
			}
		}
	}
}
