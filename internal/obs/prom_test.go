package obs

import (
	"strings"
	"testing"
	"time"
)

// TestWritePromGolden pins the full exposition-format output for a small
// deterministic collector: info gauge, counter family, histogram family
// with cumulative le buckets, and the span gauges.
func TestWritePromGolden(t *testing.T) {
	c := NewCollector()
	c.SetMeta("cmd", "test")
	c.SetMeta("q", `va"l`)
	c.Count("extract.boxcache.hits", 3)
	c.Observe("engine.task.cycles", 0.5)
	c.Observe("engine.task.cycles", 1)
	c.Observe("engine.task.cycles", 3)
	c.Span("phase", "closed", 0, 0, 1)
	c.Begin(CatPhase, "stuck") // left open on purpose

	var sb strings.Builder
	if err := c.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE drt_run_info gauge
drt_run_info{cmd="test",q="va\"l"} 1
# TYPE drt_extract_boxcache_hits counter
drt_extract_boxcache_hits 3
# TYPE drt_engine_task_cycles histogram
drt_engine_task_cycles_bucket{le="1"} 1
drt_engine_task_cycles_bucket{le="2"} 2
drt_engine_task_cycles_bucket{le="4"} 3
drt_engine_task_cycles_bucket{le="+Inf"} 3
drt_engine_task_cycles_sum 4.5
drt_engine_task_cycles_count 3
# TYPE drt_engine_task_cycles_min gauge
drt_engine_task_cycles_min 0.5
# TYPE drt_engine_task_cycles_max gauge
drt_engine_task_cycles_max 3
# TYPE drt_spans gauge
drt_spans 1
# TYPE drt_spans_open gauge
drt_spans_open 1
# TYPE drt_spans_dropped counter
drt_spans_dropped 0
`
	if got := sb.String(); got != want {
		t.Errorf("WriteProm output:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritePromNilCollector: a nil collector still writes well-formed
// (empty) span gauges — the debug server serves /metrics even when only
// progress tracking is active.
func TestWritePromNilCollector(t *testing.T) {
	var c *Collector
	var sb strings.Builder
	if err := c.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE drt_spans gauge\ndrt_spans 0\n# TYPE drt_spans_open gauge\ndrt_spans_open 0\n# TYPE drt_spans_dropped counter\ndrt_spans_dropped 0\n"
	if got := sb.String(); got != want {
		t.Errorf("nil WriteProm = %q, want %q", got, want)
	}
}

func TestProgressWritePromGolden(t *testing.T) {
	p, advance := fakeClock(t)
	p.AddCells(4, 100)
	advance(10 * time.Second)
	p.CellDone(2, 8*time.Second, 25)
	p.CellDone(3, 3*time.Second, 25)
	p.TaskDone(7)

	var sb strings.Builder
	if err := p.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE drt_progress_cells_done gauge
drt_progress_cells_done 2
# TYPE drt_progress_cells_total gauge
drt_progress_cells_total 4
# TYPE drt_progress_tasks_done gauge
drt_progress_tasks_done 7
# TYPE drt_progress_work_done gauge
drt_progress_work_done 50
# TYPE drt_progress_work_total gauge
drt_progress_work_total 100
# TYPE drt_progress_eta_seconds gauge
drt_progress_eta_seconds 10
# TYPE drt_progress_elapsed_seconds gauge
drt_progress_elapsed_seconds 10
# TYPE drt_progress_worker_utilization gauge
drt_progress_worker_utilization{worker="2"} 0.8
drt_progress_worker_utilization{worker="3"} 0.3
# TYPE drt_progress_worker_utilization_spread gauge
drt_progress_worker_utilization_spread 0.5
`
	if got := sb.String(); got != want {
		t.Errorf("Progress WriteProm output:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"extract.boxcache.hits": "drt_extract_boxcache_hits",
		"a-b c":                 "drt_a_b_c",
		"Already_OK9":           "drt_Already_OK9",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
