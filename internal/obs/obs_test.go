package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestNopZeroAlloc is the acceptance check that instrumentation with no
// recorder attached costs zero allocations: every Recorder method on the
// no-op path — both the Nop value and a nil *Collector — must not allocate.
func TestNopZeroAlloc(t *testing.T) {
	recorders := map[string]Recorder{
		"nop":           Nop{},
		"ornop(nil)":    OrNop(nil),
		"nil-collector": (*Collector)(nil),
	}
	for name, rec := range recorders {
		allocs := testing.AllocsPerRun(1000, func() {
			rec.Count("engine.tasks", 1)
			rec.Observe("task.compute_cycles", 123.5)
			rec.Span(CatTask, "compute", TrackCompute, 10, 42)
			id := rec.Begin(CatPhase, "simulate")
			rec.End(id)
		})
		if allocs != 0 {
			t.Errorf("%s: %g allocs per run, want 0", name, allocs)
		}
	}
}

func TestCollectorCountersAndHists(t *testing.T) {
	c := NewCollector()
	c.Count("a", 2)
	c.Count("a", 3)
	c.Observe("h", 1)
	c.Observe("h", 3)
	c.Observe("h", 0.25)
	if got := c.Counter("a"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	snap := c.Snapshot()
	h, ok := snap.Histograms["h"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if h.Count != 3 || h.Min != 0.25 || h.Max != 3 {
		t.Fatalf("hist = %+v", h)
	}
	var bucketTotal int64
	for _, b := range h.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != h.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, h.Count)
	}
}

func TestCollectorSpansAndMeta(t *testing.T) {
	c := NewCollector()
	c.SetMeta("matrix", "cant")
	c.SetMeta("matrix", "pwtk") // overwrite keeps one entry
	c.Span(CatTask, "compute", TrackCompute, 0, 10)
	c.Span(CatExtraction, "extract", TrackExtract, 0, 5)
	id := c.Begin(CatPhase, "run")
	c.End(id)
	c.End(SpanID(-1)) // no-op IDs are ignored
	if n := c.SpanCount(); n != 3 {
		t.Fatalf("spans = %d, want 3", n)
	}
	cats := c.Categories()
	if len(cats) != 3 {
		t.Fatalf("categories = %v", cats)
	}
	snap := c.Snapshot()
	if snap.Meta["matrix"] != "pwtk" {
		t.Fatalf("meta = %v", snap.Meta)
	}
}

func TestCollectorSpanCap(t *testing.T) {
	c := NewCollector()
	c.SetMaxSpans(2)
	for i := 0; i < 5; i++ {
		c.Span(CatTask, "compute", TrackCompute, float64(i), 1)
	}
	if n := c.SpanCount(); n != 2 {
		t.Fatalf("spans = %d, want 2", n)
	}
	if d := c.Snapshot().DroppedSpans; d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
}

// TestChromeTraceValid unmarshals the exported trace and checks the
// structure chrome://tracing requires: a traceEvents array of complete
// events spanning the pipeline's three categories.
func TestChromeTraceValid(t *testing.T) {
	c := NewCollector()
	c.SetMeta("matrix", "cant")
	c.Span(CatPhase, "dram", TrackPhaseDRAM, 0, 100)
	c.Span(CatTask, "compute", TrackCompute, 0, 40)
	c.Span(CatExtraction, "extract", TrackExtract, 0, 10)
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cats := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			cats[ev.Cat] = true
		}
	}
	for _, want := range []string{CatPhase, CatTask, CatExtraction} {
		if !cats[want] {
			t.Errorf("category %q missing from trace", want)
		}
	}
	if trace.OtherData["matrix"] != "cant" {
		t.Errorf("metadata missing from otherData: %v", trace.OtherData)
	}
}

func TestWriteJSONAndCSV(t *testing.T) {
	c := NewCollector()
	c.SetMeta("accel", "extensor-op-drt")
	c.Count("traffic.a_bytes", 1024)
	c.Observe("tile.b_bytes", 4096)
	var jsonBuf bytes.Buffer
	if err := c.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if snap.Counters["traffic.a_bytes"] != 1024 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

// TestCollectorConcurrent hammers one Collector from many goroutines —
// the sharing pattern the parallel experiment runner creates, where every
// worker records into the experiment context's collector. Run under
// -race this pins that every Recorder method and reader is goroutine-safe;
// the final totals check that no update was lost.
func TestCollectorConcurrent(t *testing.T) {
	const (
		goroutines = 16
		iterations = 200
	)
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				c.Count("cells", 1)
				c.Count("bytes", 64)
				c.Observe("cycles", float64(i+1))
				c.Span(CatTask, "compute", TrackCompute, float64(i), 1)
				id := c.Begin(CatPhase, "cell")
				c.SetMeta("matrix", "cant")
				c.End(id)
				if i%32 == 0 {
					// Readers interleave with writers in real runs
					// (-metrics-out snapshots while experiments record).
					c.Snapshot()
					c.Counter("cells")
					c.SpanCount()
					c.Categories()
				}
			}
		}(g)
	}
	wg.Wait()
	const n = goroutines * iterations
	if got := c.Counter("cells"); got != n {
		t.Fatalf("cells = %d, want %d (lost updates)", got, n)
	}
	if got := c.Counter("bytes"); got != 64*n {
		t.Fatalf("bytes = %d, want %d", got, 64*n)
	}
	snap := c.Snapshot()
	if h := snap.Histograms["cycles"]; h.Count != n || h.Min != 1 || h.Max != iterations {
		t.Fatalf("cycles hist = %+v, want count %d min 1 max %d", h, n, iterations)
	}
	if got := c.SpanCount(); got != 2*n {
		t.Fatalf("spans = %d, want %d", got, 2*n)
	}
	if snap.Meta["matrix"] != "cant" {
		t.Fatalf("meta = %v", snap.Meta)
	}
}

func TestBuildMeta(t *testing.T) {
	// Under go test there may be no VCS stamp; the call must still work
	// and report the Go version.
	m := BuildMeta()
	if m["go.version"] == "" {
		t.Fatalf("BuildMeta missing go.version: %v", m)
	}
}
