package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Prometheus text-format export: the collector's counters and histograms
// serialize to the exposition format a Prometheus scraper (or curl) reads,
// served live by internal/obs/httpserve's /metrics endpoint. Metric names
// are the collector's dotted names with dots flattened to underscores
// under a "drt_" prefix; run metadata becomes a drt_run_info gauge with
// one label per metadatum, the conventional info-metric shape.

// promName flattens a collector name ("extract.boxcache.hits") to a valid
// Prometheus metric name ("drt_extract_boxcache_hits").
func promName(name string) string {
	var b strings.Builder
	b.WriteString("drt_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promFloat renders a sample value (Prometheus accepts Go's shortest
// round-trip float formatting).
func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WriteProm writes the collector's snapshot in the Prometheus text
// exposition format: every counter as a counter family, every histogram as
// a histogram family (cumulative power-of-two le buckets plus _sum and
// _count) with companion _min/_max gauges, the span totals as gauges, and
// the run metadata as a drt_run_info gauge. Output is deterministically
// ordered (sorted names) so it goldens cleanly. A nil collector writes
// only the (empty) run-info families.
func (c *Collector) WriteProm(w io.Writer) error {
	return writePromSnapshot(w, c.Snapshot())
}

// writePromSnapshot renders one snapshot; split from WriteProm so the
// debug server can serve a consistent snapshot it already took.
func writePromSnapshot(w io.Writer, snap Snapshot) error {
	var b strings.Builder
	if len(snap.Meta) > 0 {
		keys := sortedKeys(snap.Meta)
		b.WriteString("# TYPE drt_run_info gauge\ndrt_run_info{")
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=\"%s\"", promName(k)[len("drt_"):], promEscape(snap.Meta[k]))
		}
		b.WriteString("} 1\n")
	}
	for _, k := range sortedKeys(snap.Counters) {
		n := promName(k)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, snap.Counters[k])
	}
	for _, k := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[k]
		n := promName(k)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		var cum int64
		for _, bk := range h.Buckets {
			cum += bk.Count
			// The collector's buckets are exclusive upper bounds (v < le);
			// for the integer-valued cycle/byte samples the ≤ reading is
			// off by at most the exact boundary value, which power-of-two
			// bucketing already blurs.
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", n, promFloat(bk.Le), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(&b, "%s_sum %s\n", n, promFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", n, h.Count)
		fmt.Fprintf(&b, "# TYPE %s_min gauge\n%s_min %s\n", n, n, promFloat(h.Min))
		fmt.Fprintf(&b, "# TYPE %s_max gauge\n%s_max %s\n", n, n, promFloat(h.Max))
	}
	fmt.Fprintf(&b, "# TYPE drt_spans gauge\ndrt_spans %d\n", snap.Spans)
	fmt.Fprintf(&b, "# TYPE drt_spans_open gauge\ndrt_spans_open %d\n", snap.OpenSpans)
	fmt.Fprintf(&b, "# TYPE drt_spans_dropped counter\ndrt_spans_dropped %d\n", snap.DroppedSpans)
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteProm appends the live progress gauges in the same exposition
// format: cells/tasks/work done and totals, the ETA estimate, elapsed
// time, and one utilization sample per active worker. A nil receiver
// writes nothing.
func (p *Progress) WriteProm(w io.Writer) error {
	if p == nil {
		return nil
	}
	s := p.Snapshot()
	var b strings.Builder
	gauge := func(name string, v float64) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(v))
	}
	gauge("drt_progress_cells_done", float64(s.CellsDone))
	gauge("drt_progress_cells_total", float64(s.CellsTotal))
	gauge("drt_progress_tasks_done", float64(s.TasksDone))
	gauge("drt_progress_work_done", float64(s.WorkDone))
	gauge("drt_progress_work_total", float64(s.WorkTotal))
	gauge("drt_progress_eta_seconds", s.ETASeconds)
	gauge("drt_progress_elapsed_seconds", s.ElapsedSeconds)
	if len(s.Workers) > 0 {
		b.WriteString("# TYPE drt_progress_worker_utilization gauge\n")
		sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Worker < s.Workers[j].Worker })
		lo, hi := s.Workers[0].Utilization, s.Workers[0].Utilization
		for _, ws := range s.Workers {
			fmt.Fprintf(&b, "drt_progress_worker_utilization{worker=\"%d\"} %s\n", ws.Worker, promFloat(ws.Utilization))
			if ws.Utilization < lo {
				lo = ws.Utilization
			}
			if ws.Utilization > hi {
				hi = ws.Utilization
			}
		}
		// The spread is the balance observable: LPT's longest-first stealing
		// should pull it toward 0, FIFO's index order leaves the long tail
		// on whichever worker drew it.
		gauge("drt_progress_worker_utilization_spread", hi-lo)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
