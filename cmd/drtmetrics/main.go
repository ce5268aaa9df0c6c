// Command drtmetrics analyzes the committed benchmark snapshots
// (BENCH_*.json, written by scripts/bench.sh) as a time series: for every
// benchmark it prints a drift table — first, best, worst and latest ns/op
// and allocs/op across the snapshot history — so performance regressions
// that creep in across PRs are visible from the repo itself, not just
// from a side-by-side run.
//
// Usage:
//
//	drtmetrics                          # trend table over ./BENCH_*.json
//	drtmetrics -dir path/to/repo        # snapshots live elsewhere
//	drtmetrics -match 'Fig1[47]'        # restrict to matching benchmarks
//	drtmetrics -check                   # exit 1 if any benchmark regressed
//	drtmetrics -check -warn 'Fig14Partition|Fig17MicroTile'
//	drtmetrics -merge -o t.json s0.json s1.json   # recombine shard dumps
//
// -merge switches to a different mode: the arguments are per-shard
// metrics dumps from drtbench -shard k/n -metrics-out, given in shard
// order, and the output is one dump byte-identical to the unsharded
// run's (data rows concatenated, geomean rows recomputed — see
// EXPERIMENTS.md for the recipe).
//
// Snapshot filenames carry an optional series tag between the prefix and
// the date: BENCH_scale1_<date>.json (written by scripts/bench.sh scale1)
// forms the "scale1" series, tracked separately from the default scaled
// series — full-scale wall times never mix into the scaled drift
// baselines; their trends print with a "scale1/" name prefix.
//
// After the drift table a second table names each snapshot's host from
// its stamp (CPU model, CPU count, GOMAXPROCS), so trends are read
// against the machines that measured them; snapshots written before
// scripts/bench.sh stamped them read "unstamped".
//
// A benchmark counts as regressed when its latest snapshot exceeds the
// best (minimum) snapshot in the series by more than the tolerance:
// ns/op by a fractional growth of -ns-tol (default 0.25, i.e. +25%), or
// allocs/op by a factor of -alloc-factor (default 2.0). -warn names
// benchmarks whose regression is acknowledged: they are still reported
// (marked "ack") but do not affect the exit code, so CI can keep known
// watch items visible without failing every build. Exit codes: 0 clean or
// all regressions acknowledged, 1 unacknowledged regressions with -check,
// 2 usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"

	"drt/internal/cli"
	"drt/internal/metrics"
)

func main() {
	var (
		merge       = flag.Bool("merge", false, "merge shard metrics dumps (drtbench -shard k/n -metrics-out …) given as arguments, in shard order, into one dump")
		mergeOut    = flag.String("o", "", "with -merge: write the merged dump here (default stdout)")
		dir         = flag.String("dir", ".", "directory holding the BENCH_*.json snapshots")
		match       = flag.String("match", "", "regexp restricting which benchmarks are analyzed (empty = all)")
		check       = flag.Bool("check", false, "exit 1 when any analyzed benchmark regressed beyond tolerance")
		warn        = flag.String("warn", "", "regexp of benchmarks whose regressions are acknowledged (reported, never fatal)")
		nsTol       = flag.Float64("ns-tol", 0.25, "fractional ns/op growth of latest over the series best that counts as a regression")
		allocFactor = flag.Float64("alloc-factor", 2.0, "allocs/op factor of latest over the series best that counts as a regression")
		csv         = flag.Bool("csv", false, "emit the trend table as CSV instead of aligned text")
	)
	flag.Parse()
	defer cli.Cleanup()

	if *merge {
		if flag.NArg() < 1 {
			cli.Usagef("drtmetrics: -merge needs the shard dump files as arguments, in shard order")
		}
		dumps := make([]metrics.Dump, 0, flag.NArg())
		for _, f := range flag.Args() {
			d, err := metrics.LoadDump(f)
			if err != nil {
				cli.Fatalf("drtmetrics: %v", err)
			}
			dumps = append(dumps, d)
		}
		merged, err := metrics.MergeDumps(dumps)
		if err != nil {
			cli.Fatalf("drtmetrics: %v", err)
		}
		out := os.Stdout
		if *mergeOut != "" {
			f, err := os.Create(*mergeOut)
			if err != nil {
				cli.Fatalf("drtmetrics: -o: %v", err)
			}
			defer f.Close()
			out = f
		}
		if err := merged.WriteJSON(out); err != nil {
			cli.Fatalf("drtmetrics: %v", err)
		}
		return
	}

	matchRE, err := compile(*match)
	if err != nil {
		cli.Usagef("drtmetrics: -match: %v", err)
	}
	warnRE, err := compile(*warn)
	if err != nil {
		cli.Usagef("drtmetrics: -warn: %v", err)
	}

	snaps, err := LoadSnapshots(*dir)
	if err != nil {
		cli.Fatalf("drtmetrics: %v", err)
	}
	if len(snaps) == 0 {
		cli.Fatalf("drtmetrics: no BENCH_*.json snapshots in %s", *dir)
	}

	trends := Analyze(snaps, matchRE)
	if len(trends) == 0 {
		cli.Fatalf("drtmetrics: no benchmarks match %q", *match)
	}

	tol := Tolerance{NsGrowth: *nsTol, AllocFactor: *allocFactor}
	t := metrics.NewTable(
		fmt.Sprintf("Benchmark drift over %d snapshots (%s .. %s)", len(snaps), snaps[0].Date, snaps[len(snaps)-1].Date),
		"benchmark", "runs", "first-ns", "best-ns", "worst-ns", "latest-ns", "vs-best", "allocs-first", "allocs-latest", "status")
	regressions := 0
	for _, tr := range trends {
		status := "ok"
		if r := tr.Regressed(tol); r != "" {
			if warnRE != nil && warnRE.MatchString(tr.Name) {
				status = "ack " + r
			} else {
				status = "REGRESSED " + r
				regressions++
			}
		}
		t.AddRow(tr.Name, len(tr.Points),
			fmtNs(tr.First().NsPerOp), fmtNs(tr.BestNs), fmtNs(tr.WorstNs), fmtNs(tr.Latest().NsPerOp),
			fmt.Sprintf("%+.1f%%", 100*tr.NsGrowth()),
			tr.First().AllocsPerOp, tr.Latest().AllocsPerOp, status)
	}
	hosts := metrics.NewTable("Snapshot hosts", "snapshot", "date", "host")
	for _, s := range snaps {
		hosts.AddRow(s.File, s.Date, s.Host())
	}
	for _, tab := range []*metrics.Table{t, hosts} {
		if *csv {
			fmt.Printf("# %s\n%s\n", tab.Title, tab.CSV())
		} else {
			fmt.Println(tab.String())
		}
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "drtmetrics: %d benchmark(s) regressed beyond tolerance (ns/op +%.0f%% or allocs/op x%.1f over series best)\n",
			regressions, 100*tol.NsGrowth, tol.AllocFactor)
		if *check {
			cli.Fatalf("drtmetrics: check failed")
		}
	}
}

func compile(expr string) (*regexp.Regexp, error) {
	if expr == "" {
		return nil, nil
	}
	return regexp.Compile(expr)
}

// fmtNs renders a ns/op value with seconds-scale readability for the slow
// figure benchmarks while keeping fast ones exact.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	}
	return fmt.Sprintf("%.0fns", ns)
}
