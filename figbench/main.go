// Command figbench times the paper's figures end to end, each pass in a
// fresh process with one worker, and attributes a separate traced run to
// the system's layers. See README.md for the workloads, the metrics and
// what each per-layer metric should move.
//
// Usage (from the repository root):
//
//	python3 figbench/run.py --workload fig6-cold --seed 0 --seconds 38 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if childMain() {
		return
	}
	var cfg runConfig
	flag.StringVar(&cfg.Workload, "workload", "", "workload: fig6-cold | fig14-cold | retimed-warm")
	flag.Int64Var(&cfg.Seed, "seed", 0, "input seed, added to every catalog generator seed (0 = drtbench's inputs)")
	flag.Float64Var(&cfg.Seconds, "seconds", 38, "seconds from the run's start within which timed passes must end")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.Work, "work", filepath.Join(".bench_build", "figbench-work"), "directory for the run's temporary stores, profiles and run record")
	flag.Parse()
	cfg.Traced = *trace == 1
	if _, err := lookupSpec(cfg.Workload); err != nil || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "figbench: bad arguments (workload %q, trace %d)\n", cfg.Workload, *trace)
		flag.Usage()
		os.Exit(2)
	}
	// No disk state may carry between runs: the operand cache stays off
	// here and in every pass, which inherits the environment.
	os.Setenv("DRT_OPERAND_CACHE", "off")

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// minPasses is the fewest timed passes a run makes, however long they take.
const minPasses = 3

type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	Work     string
	Scale    int // overrides the spec's scale when > 0 (tests)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the run's result, the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything a run writes to its run record: the host stamp,
// every pass with its spans, the failures and the result line.
type record struct {
	Config   runConfig
	Host     map[string]string
	Passes   []passRecord
	Failures []string
	Output   output
}

type passRecord struct {
	Mode   string
	StartS float64
	Result passResult
}

// run executes one benchmark run: set-up, the timed phase for
// cfg.Seconds, and, when traced, the profile attribution and layer pass.
func run(cfg runConfig) (output, error) {
	s, err := lookupSpec(cfg.Workload)
	if err != nil {
		return output{}, err
	}
	host := hostStamp()
	fmt.Fprintf(os.Stderr, "figbench: host %s\n", formatStamp(host))
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		return output{}, err
	}
	tmp, err := os.MkdirTemp(cfg.Work, "run-")
	if err != nil {
		return output{}, err
	}
	defer os.RemoveAll(tmp)

	rec := record{Config: cfg, Host: host}
	var goldens []string // a scale override (tests) has no goldens
	if cfg.Scale == 0 {
		if goldens, err = loadGoldens(s); err != nil {
			return output{}, err
		}
	}
	ck := checker{spec: s, seed: cfg.Seed, golden: goldens}
	origin := time.Now()
	pass := func(req passRequest) (passResult, bool) {
		req.Workload, req.Scale, req.Seed, req.Traced = s.Name, cfg.Scale, cfg.Seed, cfg.Traced
		start := time.Since(origin).Seconds()
		res, err := startPass(req)
		rec.Passes = append(rec.Passes, passRecord{Mode: req.Mode, StartS: start, Result: res})
		if err != nil {
			ck.fail(len(s.Figs), err.Error())
			return res, false
		}
		return res, true
	}

	// Set-up. Cold workloads prepare inside each pass (its prep time is
	// the set-up sample); a warm workload records the store it replays.
	var setups []float64
	var store string
	var cold []string // the recording pass's tables, which warm passes must reproduce
	if s.Warm {
		n := 5
		if cfg.Traced {
			n = 1
		}
		for i := 0; i < n; i++ {
			dir := filepath.Join(tmp, fmt.Sprintf("store-%d", i))
			res, ok := pass(passRequest{Mode: modeRecord, Store: dir})
			if !ok {
				continue
			}
			setups = append(setups, res.SetupS)
			ck.checkCold(res)
			if cold != nil {
				os.RemoveAll(dir) // only the first store is replayed
				continue
			}
			store, cold = dir, res.Tables
		}
		if store == "" {
			return ck.result(nil), nil
		}
	}

	// Timed phase: fresh passes for as long as the next one, taking the
	// median pass so far, ends within cfg.Seconds of the run's start (set-up
	// included, so every workload's run lasts about as long), and at least
	// minPasses of them.
	var walls, cpus, rss, durs []float64
	var profiles []string
	var counters map[string]int64
	for i := 0; i < minPasses || time.Since(origin).Seconds()+median(durs) <= cfg.Seconds; i++ {
		req := passRequest{Mode: modeCold}
		if s.Warm {
			req = passRequest{Mode: modeWarm, Store: store}
		}
		if cfg.Traced {
			req.CPUProfile = filepath.Join(tmp, fmt.Sprintf("cpu-%d.pprof", i))
		}
		passStart := time.Now()
		res, ok := pass(req)
		durs = append(durs, time.Since(passStart).Seconds())
		if !ok {
			continue
		}
		if s.Warm {
			ck.checkWarm(res, cold)
		} else {
			setups = append(setups, res.SetupS)
			ck.checkCold(res)
		}
		walls = append(walls, res.WallS)
		cpus = append(cpus, res.CPUS)
		rss = append(rss, float64(res.MaxRSSKB)/1024)
		if req.CPUProfile != "" {
			profiles = append(profiles, req.CPUProfile)
		}
		if counters == nil {
			counters = res.Counters
		}
	}
	if len(walls) == 0 {
		return ck.result(nil), nil
	}

	// Each metric is the mean over the run's passes. The host switches a
	// pass between a fast mode and one up to 1.7 times slower, for seconds
	// to minutes at a time; the mean of many short passes tracks the share
	// of time spent slow smoothly, where the median and the minimum jump
	// from one mode to the other between runs.
	m := map[string]metric{}
	if !cfg.Traced {
		m["wall_s"] = metric{mean(walls), "s"}
		m["cpu_s"] = metric{mean(cpus), "s"}
		m["setup_s"] = metric{mean(setups), "s"}
		m["peak_rss_mb"] = metric{mean(rss), "MB"}
	} else {
		m["traced.wall_s"] = metric{mean(walls), "s"}
		if err := addProfileMetrics(m, profiles); err != nil {
			return output{}, err
		}
		addCounterMetrics(m, counters)
		lc, err := layerPass(s, cfg.Scale, cfg.Seed, tmp)
		if err != nil {
			ck.fail(0, "layer pass: "+err.Error())
		} else {
			lc.addMetrics(m)
		}
	}
	out := ck.result(m)
	rec.Failures, rec.Output = ck.failures, out
	if err := writeRecord(cfg, rec); err != nil {
		fmt.Fprintf(os.Stderr, "figbench: run record: %v\n", err)
	}
	return out, nil
}

// addCounterMetrics reports exp's own counters from a traced pass.
func addCounterMetrics(m map[string]metric, c map[string]int64) {
	hits, misses := c["trace_store.hits"], c["trace_store.misses"]
	m["exp.trace_store.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["exp.tracecache.direct"] = metric{float64(c["exp.tracecache.direct"]), "count"}
	m["exp.workload.misses"] = metric{float64(c["exp.workload.misses"]), "count"}
	m["exp.workload.hits"] = metric{float64(c["exp.workload.hits"]), "count"}
}

// writeRecord saves the run record (host stamp, passes with their spans,
// failures, result) under the work directory.
func writeRecord(cfg runConfig, rec record) error {
	dir := filepath.Join(cfg.Work, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if cfg.Traced {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), blob, 0o644)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
