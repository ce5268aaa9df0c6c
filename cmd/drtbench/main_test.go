package main

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drt/internal/exp"
	"drt/internal/metrics"
	"drt/internal/obs"
)

// TestMetricsDumpCarriesCounters runs fig12, fig15 and fig16 cold and then
// warm against one trace store, as `drtbench -exp fig12,fig15,fig16
// -metrics-out m.json -log info` does twice, and checks that the warm
// dump, once written and loaded back, carries every count its "cache
// summary" line prints: no workload built, one summary hit per workload.
func TestMetricsDumpCarriesCounters(t *testing.T) {
	store := t.TempDir()
	var (
		dump metrics.Dump
		rec  *obs.Collector
	)
	for pass := 0; pass < 2; pass++ {
		rec = obs.NewCollector()
		c := exp.NewContext(exp.Options{Scale: 64, MicroTile: 8, MaxWorkloads: 3,
			NoOperandCache: true, TraceStore: store, Rec: rec})
		dump = metrics.Dump{}
		for _, id := range []string{"fig12", "fig15", "fig16"} {
			f, ok := c.Runner(id)
			if !ok {
				t.Fatalf("no runner %s", id)
			}
			tb, err := f()
			if err != nil {
				t.Fatal(err)
			}
			dump.Experiments = append(dump.Experiments, metrics.Result(id, tb, 0))
		}
	}
	var log bytes.Buffer
	logCacheSummary(obs.NewRunLogger(&log, slog.LevelInfo), rec)

	path := filepath.Join(t.TempDir(), "m.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := withRun(dump, rec).WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := metrics.LoadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cacheSummary {
		if want := fmt.Sprintf(" %s=%d", c.key, got.Counters[c.counter]); !strings.Contains(log.String(), want) {
			t.Errorf("dump has %s=%d, cache summary line does not agree:\n%s", c.counter, got.Counters[c.counter], log.String())
		}
	}
	if n, ok := got.Counters["exp.workload.builds"]; ok && n != 0 {
		t.Errorf("warm run built %d workloads", n)
	}
	if got.Counters["summary_store.hits"] == 0 || got.Counters["summary_store.hits"] != got.Counters["exp.workload.misses"] {
		t.Errorf("warm dump: %d summary hits for %d workload misses, want one per miss",
			got.Counters["summary_store.hits"], got.Counters["exp.workload.misses"])
	}
}
