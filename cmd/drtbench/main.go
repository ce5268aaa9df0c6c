// Command drtbench regenerates the paper's evaluation: one experiment per
// figure/table of Sec. 6 (see DESIGN.md §4 for the index). Workloads are
// synthetic stand-ins for the SuiteSparse/SNAP suite, scaled down by
// -scale with buffer capacities scaled to match, so the shape of every
// result (who wins, by what factor) is preserved at laptop scale.
//
// Usage:
//
//	drtbench -exp fig6              # one experiment
//	drtbench -exp all               # the full evaluation
//	drtbench -exp fig6 -scale 8     # closer to full scale (slower)
//	drtbench -exp all -parallel 8   # fan workload cells across 8 workers
//	drtbench -list                  # list experiment ids
//	drtbench -exp fig6 -metrics-out fig6.json
//	drtbench -exp all -progress -listen :8080   # live ETA line + debug server
//
// -progress prints a once-a-second line to stderr with cells done/total,
// engine tasks consumed, the nnz-weighted ETA and per-worker utilization;
// -listen serves the same state over HTTP (/metrics in Prometheus text
// format, /progress as JSON, /healthz, /debug/pprof/) while the run is in
// flight; -log off|info|debug emits structured slog records (run start/
// end, per-experiment timing, slow cells, cache summaries) on stderr.
//
// Performance knobs (-parallel, -trace-store, -operand-cache, -shard)
// change only how fast the evaluation runs, never what it prints —
// every table is byte-identical at any setting (for -shard, after
// drtmetrics -merge). -parallel bounds the worker goroutines used for
// independent (workload × configuration) cells inside each experiment and
// for the reference pass that prepares each workload (results are
// reassembled in input order, so -parallel 1 reproduces the sequential
// run exactly; the heaviest cells start first, with idle workers
// stealing the largest remaining one — see DESIGN.md "Scheduling");
// -trace-store (auto by default: DRT_TRACE_CACHE or the user cache dir,
// "off" disables) persists recorded schedules as
// content-addressed .drtt files shared across processes, so warm re-runs
// and sharded sweeps replay schedules an earlier process already recorded
// (see DESIGN.md "Persistent trace store"). Independently of any flag,
// each reused (workload, tiling config) schedule is recorded once and
// every sweep point that only changes machine speed or pricing knobs
// replays it, with the points sharing a schedule priced in one pass
// (DESIGN.md "Trace record/replay"); -operand-cache (on by default) reuses
// large generated operands from a mmap-backed on-disk cache keyed by the
// generator spec (DRT_OPERAND_CACHE overrides the directory, "off"
// disables it); -shard k/n runs one contiguous piece of the shardable
// experiments (fig6, fig7, tab3) so a full-scale sweep spreads across
// machines, with drtmetrics -merge recombining the per-shard -metrics-out
// dumps (see DESIGN.md "Operand cache" and EXPERIMENTS.md for the merge
// recipe). The micro-tile summary's block edge is not a knob: each grid
// picks it from its extents (DESIGN.md "Key design decisions").
//
// -metrics-out writes every experiment's table as structured JSON together
// with the run metadata (scale, workload generator specs, VCS revision),
// so the paper's tables can be reproduced from machine-readable data
// instead of scraping text (see EXPERIMENTS.md). Exit codes: 2 for usage
// errors, 1 for runtime errors.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"time"

	"drt/internal/cli"
	"drt/internal/exp"
	"drt/internal/metrics"
	"drt/internal/obs"
	"drt/internal/obs/httpserve"
)

func main() {
	var (
		expID      = flag.String("exp", "all", "experiment id (figN, sec65, tabN) or 'all'")
		scale      = flag.Int("scale", 16, "workload scale-down factor (1 = full paper scale)")
		microTile  = flag.Int("microtile", 16, "micro tile edge in coordinates")
		maxW       = flag.Int("workloads", 0, "cap on catalog entries per experiment (0 = all)")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "worker goroutines per experiment (1 = sequential)")
		traceStore = flag.String("trace-store", "auto", "persistent trace store: auto (DRT_TRACE_CACHE or the user cache dir), off, or a directory; recorded schedules replay across processes (bit-identical tables)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		csv        = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
		metricsOut = flag.String("metrics-out", "", "write all tables and run metadata as JSON to this file")
		progress   = flag.Bool("progress", false, "print a live progress line (cells, tasks, nnz-weighted ETA) to stderr every second")
		shardFlag  = flag.String("shard", "", "run piece k/n of the shardable experiments (fig6, fig7, tab3); merge the shards' -metrics-out dumps with drtmetrics -merge")
		opCache    = flag.Bool("operand-cache", true, "reuse generated operands via the on-disk cache (DRT_OPERAND_CACHE; tables are bit-identical either way)")
	)
	listen := cli.AddListenFlag()
	logLevel := cli.AddLogFlag()
	prof := cli.AddProfileFlags()
	cli.GroupUsage("drtbench", "Performance knobs", "parallel", "trace-store", "operand-cache", "shard")
	flag.Parse()
	defer cli.Cleanup()
	cli.CheckScale("drtbench", *scale, *microTile)
	stopProf := prof.Start("drtbench")

	if *list {
		fmt.Println(strings.Join(exp.Experiments(), "\n"))
		return
	}

	logger, err := cli.Logger(*logLevel)
	if err != nil {
		cli.Usagef("drtbench: %v", err)
	}

	var rec *obs.Collector
	if *metricsOut != "" || *listen != "" {
		rec = obs.NewCollector()
		rec.SetMeta("cmd", "drtbench")
		rec.SetMeta("exp", *expID)
		rec.SetMeta("scale", fmt.Sprint(*scale))
		rec.SetMeta("microtile", fmt.Sprint(*microTile))
		rec.SetMeta("trace-store", exp.TraceStoreDir(*traceStore))
		for k, v := range obs.BuildMeta() {
			rec.SetMeta(k, v)
		}
	}

	shard, err := exp.ParseShard(*shardFlag)
	if err != nil {
		cli.Usagef("drtbench: %v", err)
	}
	if rec != nil {
		rec.SetMeta("shard", shard.String())
	}

	// Live telemetry: the progress tracker exists when either consumer
	// (the stderr line or the debug server) asked for it; installing it as
	// the process-wide sink makes the engine task loops tick it.
	var prog *obs.Progress
	if *progress || *listen != "" {
		prog = obs.NewProgress()
		obs.SetActive(prog)
	}
	if *listen != "" {
		srv, err := httpserve.Start(*listen, httpserve.Options{Collector: rec, Progress: prog, Log: logger})
		if err != nil {
			cli.Fatalf("drtbench: -listen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "drtbench: debug server on http://%s (/metrics /progress /healthz /debug/pprof/)\n", srv.Addr)
		cli.AtExit(func() { srv.Close() })
	}
	if *progress {
		stopLine := prog.StartPrinter(os.Stderr, time.Second)
		cli.AtExit(stopLine)
		defer stopLine()
	}

	opts := exp.Options{Scale: *scale, MicroTile: *microTile, MaxWorkloads: *maxW, Parallel: *parallel, TraceStore: exp.TraceStoreDir(*traceStore), Progress: prog, Shard: shard, NoOperandCache: !*opCache}
	if rec != nil {
		opts.Rec = rec
	}
	if *logLevel != "" && *logLevel != "off" {
		opts.Log = logger
	}
	c := exp.NewContext(opts)
	ids := exp.Experiments()
	if *expID != "all" {
		ids = strings.Split(*expID, ",")
	}
	logger.Info("run start", "cmd", "drtbench", "exp", *expID, "scale", *scale,
		"parallel", *parallel)
	runStart := time.Now()
	var dump metrics.Dump
	for _, id := range ids {
		id = strings.TrimSpace(id)
		f, ok := c.Runner(id)
		if !ok {
			cli.Usagef("drtbench: unknown experiment %q (use -list)", id)
		}
		if shard.Enabled() && shard.K > 0 && !exp.Shardable(id) {
			// Non-shardable experiments run whole on shard 0; the other
			// shards skip them so the merged dump holds exactly one copy.
			fmt.Fprintf(os.Stderr, "drtbench: shard %s: skipping %s (not shardable; shard 0 runs it whole)\n", shard, id)
			continue
		}
		span := rec.Begin(obs.CatPhase, "experiment")
		prog.UnitStart(id)
		start := time.Now()
		table, err := f()
		rec.End(span)
		prog.UnitEnd(id)
		if err != nil {
			cli.Fatalf("drtbench: %s: %v", id, err)
		}
		elapsed := time.Since(start)
		logger.Info("experiment done", "id", id, "seconds", elapsed.Seconds())
		if *csv {
			fmt.Printf("# %s\n%s\n", table.Title, table.CSV())
		} else {
			fmt.Println(table.String())
			fmt.Printf("(%s completed in %v)\n\n", id, elapsed.Round(time.Millisecond))
		}
		if *metricsOut != "" {
			dump.Experiments = append(dump.Experiments, metrics.Result(id, table, elapsed.Seconds()))
		}
	}
	stopProf()
	if rec != nil {
		logCacheSummary(logger, rec)
	}
	logger.Info("run end", "cmd", "drtbench", "seconds", time.Since(runStart).Seconds())
	if *metricsOut != "" {
		dump = withRun(dump, rec)
		f, err := os.Create(*metricsOut)
		if err != nil {
			cli.Fatalf("drtbench: -metrics-out: %v", err)
		}
		if err := dump.WriteJSON(f); err != nil {
			f.Close()
			cli.Fatalf("drtbench: -metrics-out: %v", err)
		}
		if err := f.Close(); err != nil {
			cli.Fatalf("drtbench: -metrics-out: %v", err)
		}
	}
}

// cacheSummary names the counters of the -log info "cache summary" line:
// the cache-effectiveness totals, one structured line per run.
var cacheSummary = []struct{ key, counter string }{
	{"workload_hits", "exp.workload.hits"},
	{"workload_misses", "exp.workload.misses"},
	{"workload_builds", "exp.workload.builds"},
	{"summary_hits", "summary_store.hits"},
	{"summary_misses", "summary_store.misses"},
	{"trace_hits", "exp.tracecache.hits"},
	{"trace_misses", "exp.tracecache.misses"},
	{"trace_direct", "exp.tracecache.direct"},
	{"trace_evictions", "exp.tracecache.evictions"},
	{"store_hits", "trace_store.hits"},
	{"store_misses", "trace_store.misses"},
	{"boxcache_hits", "extract.boxcache.hits"},
	{"boxcache_misses", "extract.boxcache.misses"},
}

// logCacheSummary logs the run's "cache summary" line.
func logCacheSummary(logger *slog.Logger, rec *obs.Collector) {
	args := make([]any, 0, 2*len(cacheSummary))
	for _, c := range cacheSummary {
		args = append(args, c.key, rec.Counter(c.counter))
	}
	logger.Info("cache summary", args...)
}

// withRun stamps the run's metadata and counters into the -metrics-out
// dump, so the file carries every count the cache summary line prints.
func withRun(d metrics.Dump, rec *obs.Collector) metrics.Dump {
	snap := rec.Snapshot()
	d.Meta, d.Counters = snap.Meta, snap.Counters
	return d
}
