package exp

import (
	"os"
	"path/filepath"
	"testing"

	"drt/internal/accel"
	"drt/internal/accel/extensor"
	"drt/internal/gen"
	"drt/internal/obs"
)

// storeFiles lists the .drtt entries in a store directory.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var out []string
	for _, de := range ents {
		if filepath.Ext(de.Name()) == ".drtt" {
			out = append(out, filepath.Join(dir, de.Name()))
		}
	}
	return out
}

// renderFig12 runs Fig. 12 in a fresh Context — a stand-in for a fresh
// process: nothing but the store directory survives between calls.
func renderFig12(t *testing.T, opt Options) string {
	t.Helper()
	c := NewContext(opt)
	table, err := c.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	return table.String()
}

// TestTraceStoreColdProcessIdentity is the tentpole's acceptance pin: a
// run that records into the store, a fresh context that replays from it,
// and a direct (cache-free) run must all render byte-identical tables —
// and the warm context must serve every schedule from disk without
// recording anything.
func TestTraceStoreColdProcessIdentity(t *testing.T) {
	dir := t.TempDir()
	base := Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Parallel: 4}

	direct := func() string {
		traceCacheOff = true
		defer func() { traceCacheOff = false }()
		return renderFig12(t, base)
	}()

	coldRec := obs.NewCollector()
	coldOpt := base
	coldOpt.TraceStore = dir
	coldOpt.Rec = coldRec
	cold := renderFig12(t, coldOpt)
	if got := coldRec.Counter("trace_store.hits"); got != 0 {
		t.Errorf("cold run hit the empty store %d times", got)
	}
	if coldRec.Counter("trace_store.misses") == 0 {
		t.Error("cold run recorded no store misses")
	}
	if n := len(storeFiles(t, dir)); n == 0 {
		t.Fatal("cold run stored no .drtt entries")
	}

	warmRec := obs.NewCollector()
	warmOpt := base
	warmOpt.TraceStore = dir
	warmOpt.Rec = warmRec
	warm := renderFig12(t, warmOpt)
	if got := warmRec.Counter("trace_store.misses"); got != 0 {
		t.Errorf("warm run missed the store %d times", got)
	}
	if warmRec.Counter("trace_store.hits") == 0 {
		t.Error("warm run served nothing from the store")
	}
	if warmRec.Counter("trace_store.bytes") == 0 {
		t.Error("warm run counted no bytes served from disk")
	}

	if cold != direct {
		t.Errorf("cold (recording) table differs from direct run:\n--- cold ---\n%s\n--- direct ---\n%s", cold, direct)
	}
	if warm != direct {
		t.Errorf("warm (disk-replayed) table differs from direct run:\n--- warm ---\n%s\n--- direct ---\n%s", warm, direct)
	}
}

// TestTraceStoreCorruptEntriesAreMisses pins the degradation contract:
// truncated or garbage .drtt entries are treated as misses — the run
// re-records, replaces the bad entries, and renders the exact table.
func TestTraceStoreCorruptEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	base := Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Parallel: 4, TraceStore: dir}
	want := renderFig12(t, base)

	files := storeFiles(t, dir)
	if len(files) < 2 {
		t.Fatalf("fixture stored only %d entries", len(files))
	}
	// Corrupt every entry two ways: truncate half, scribble over the rest.
	for i, path := range files {
		if i%2 == 0 {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := os.WriteFile(path, []byte("not a trace at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	rec := obs.NewCollector()
	opt := base
	opt.Rec = rec
	got := renderFig12(t, opt)
	if got != want {
		t.Errorf("corrupt store changed the table:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if rec.Counter("trace_store.hits") != 0 {
		t.Error("corrupt entries were served as hits")
	}
	if rec.Counter("trace_store.misses") == 0 {
		t.Error("corrupt entries were not counted as misses")
	}
	// The re-recorded entries must decode now: a third run is all hits.
	rec3 := obs.NewCollector()
	opt3 := base
	opt3.Rec = rec3
	if got := renderFig12(t, opt3); got != want {
		t.Error("re-recorded store changed the table")
	}
	if rec3.Counter("trace_store.misses") != 0 {
		t.Error("re-recorded entries still miss")
	}
}

// TestTraceStoreDecodePanicIsMiss pins the never-fail contract one level
// deeper than corrupt files: even a decoder that panics outright (an
// injected stand-in for a codec bug) degrades to misses — the sweep
// re-records, purges the unreadable entries, and renders the exact table
// instead of crashing.
func TestTraceStoreDecodePanicIsMiss(t *testing.T) {
	dir := t.TempDir()
	base := Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Parallel: 4, TraceStore: dir}
	want := renderFig12(t, base)
	if len(storeFiles(t, dir)) == 0 {
		t.Fatal("fixture stored no entries")
	}

	orig := openTraceFile
	openTraceFile = func(string) (*accel.TraceView, error) { panic("injected decoder bug") }
	defer func() { openTraceFile = orig }()

	rec := obs.NewCollector()
	opt := base
	opt.Rec = rec
	got := renderFig12(t, opt)
	if got != want {
		t.Errorf("panicking decoder changed the table:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if rec.Counter("trace_store.hits") != 0 {
		t.Error("panicking decoder produced hits")
	}
	if rec.Counter("trace_store.misses") == 0 {
		t.Error("panicking decoder was not counted as misses")
	}
}

// TestTraceStoreRecordsOnFirstUse pins the policy shift the store brings:
// one-shot cells, which stay direct without a store (the Fig. 14 fix),
// record and persist on first use when the store is on — the next process
// is the reuse.
func TestTraceStoreRecordsOnFirstUse(t *testing.T) {
	dir := t.TempDir()
	rec := obs.NewCollector()
	c := NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 2, Rec: rec, TraceStore: dir})
	e := c.fig6Entries()[0]
	w, err := c.Square(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, startJ := range []int{2, 4, 8} { // three one-shot configurations
		opt := c.extensorOptions()
		opt.InitialSize = []int{1, startJ, 1}
		if _, err := c.runExtensor(extensor.OPDRT, e.Name, w, opt); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Counter("exp.tracecache.direct"); got != 0 {
		t.Errorf("direct = %d, want 0 (store retires the first-use-direct policy)", got)
	}
	if got := rec.Counter("exp.tracecache.misses"); got != 3 {
		t.Errorf("misses = %d, want 3", got)
	}
	if n := len(storeFiles(t, dir)); n != 3 {
		t.Errorf("stored %d entries, want 3", n)
	}
}

// TestTraceStoreKeying pins what a disk key must separate: the format
// salts, the Context-wide workload shaping (Scale, MicroTile) and every
// schedule-shaping traceKey field — and what it must share: nothing else.
func TestTraceStoreKeying(t *testing.T) {
	mk := func(opt Options) *Context { return NewContext(opt) }
	base := Options{Scale: 64, MicroTile: 8, TraceStore: "/nonexistent"}
	c := mk(base)
	key := traceKey{workload: "w", variant: extensor.OPDRT, gb: 1 << 20, pb: 1 << 14}
	dk := c.diskKey(key)
	if dk == "" || len(dk) != 64 {
		t.Fatalf("diskKey = %q", dk)
	}
	if c.diskKey(key) != dk {
		t.Error("diskKey is not deterministic")
	}
	// Context-wide shaping knobs must split the key.
	scale32 := base
	scale32.Scale = 32
	if mk(scale32).diskKey(key) == dk {
		t.Error("Scale change shared the disk key")
	}
	micro16 := base
	micro16.MicroTile = 16
	if mk(micro16).diskKey(key) == dk {
		t.Error("MicroTile change shared the disk key")
	}
	// Every schedule-shaping traceKey field must split it too.
	for name, mut := range map[string]func(k *traceKey){
		"workload": func(k *traceKey) { k.workload = "other" },
		"variant":  func(k *traceKey) { k.variant = extensor.OP },
		"init":     func(k *traceKey) { k.init = [3]int{1, 4, 1} },
		"single":   func(k *traceKey) { k.single = true },
		"shape":    func(k *traceKey) { k.hasShape = true; k.shape = [3]int{8, 8, 8} },
		"gb":       func(k *traceKey) { k.gb *= 2 },
		"pb":       func(k *traceKey) { k.pb *= 2 },
	} {
		k2 := key
		mut(&k2)
		if c.diskKey(k2) == dk {
			t.Errorf("%s change shared the disk key", name)
		}
	}
}

// TestTraceStoreKeyingSpec pins the generator spec's part in the disk
// key: any spec change (another seed, or a catalog edit) splits it, equal
// specs in two contexts share it, and a workload built outside the
// context (no recorded spec) never shares a spec'd workload's key.
func TestTraceStoreKeyingSpec(t *testing.T) {
	spec := gen.Spec{Kind: "uniform", Rows: 64, Cols: 64, NNZ: 256, Seed: 1}
	base := Options{Scale: 64, MicroTile: 8, TraceStore: "/nonexistent"}
	key := traceKey{workload: "w", variant: extensor.OPDRT, gb: 1 << 20, pb: 1 << 14}
	keyWith := func(s *gen.Spec) string {
		c := NewContext(base)
		if s != nil {
			c.noteSpec("w", *s)
		}
		return c.diskKey(key)
	}
	dk := keyWith(&spec)
	if dk == "" || keyWith(&spec) != dk {
		t.Fatalf("equal specs gave disk keys %q and %q", dk, keyWith(&spec))
	}
	for name, mut := range map[string]func(s *gen.Spec){
		"seed": func(s *gen.Spec) { s.Seed++ },
		"nnz":  func(s *gen.Spec) { s.NNZ++ },
		"kind": func(s *gen.Spec) { s.Kind = "rmat" },
	} {
		s2 := spec
		mut(&s2)
		if keyWith(&s2) == dk {
			t.Errorf("%s change shared the disk key", name)
		}
	}
	if keyWith(nil) == dk {
		t.Error("a workload without a spec shared the spec'd workload's disk key")
	}
}

// TestTraceStoreSeparatesSeeds pins the disk key's provenance: two
// contexts that share one store directory and build an entry under the
// same name from different generator seeds never replay each other's
// schedules, while contexts with equal seeds do.
func TestTraceStoreSeparatesSeeds(t *testing.T) {
	dir := t.TempDir()
	run := func(seed int64) *obs.Collector {
		t.Helper()
		rec := obs.NewCollector()
		c := NewContext(Options{Scale: 64, MicroTile: 8, NoOperandCache: true, TraceStore: dir, Rec: rec})
		e := c.fig6Entries()[0]
		e.Seed += seed
		w, err := c.Square(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.runExtensor(extensor.OPDRT, e.Name, w, c.extensorOptions()); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	for i, step := range []struct {
		seed         int64
		hits, misses int64
	}{
		{seed: 0, misses: 1},
		{seed: 1, misses: 1}, // same name, other seed: must not hit seed 0's entry
		{seed: 0, hits: 1},
		{seed: 1, hits: 1},
	} {
		rec := run(step.seed)
		if h, m := rec.Counter("trace_store.hits"), rec.Counter("trace_store.misses"); h != step.hits || m != step.misses {
			t.Errorf("step %d (seed %d): hits %d misses %d, want %d and %d", i, step.seed, h, m, step.hits, step.misses)
		}
	}
	if n := len(storeFiles(t, dir)); n != 2 {
		t.Errorf("store holds %d entries, want one per seed (2)", n)
	}
}
