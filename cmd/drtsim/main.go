// Command drtsim runs a single SpMSpM workload through one accelerator
// configuration and prints the full result breakdown: per-tensor DRAM
// traffic, arithmetic intensity, phase cycles, task statistics and energy.
//
// Usage:
//
//	drtsim -matrix cant -accel extensor-op-drt
//	drtsim -matrix cit-HepPh -accel extensor-op -scale 8
//	drtsim -matrix pwtk -accel outerspace-drt
//	drtsim -matrix cant -accel extensor-op-drt -json -trace-out trace.json
//
// With -json the report is emitted as a machine-readable JSON document on
// stdout (schema in README.md "Observability"); -trace-out writes the
// run's span timeline as a Chrome trace-event file for chrome://tracing or
// Perfetto; -metrics-out writes the JSON report to a file regardless of
// the stdout format. -progress, -listen and -log add live telemetry on
// stderr/HTTP without touching stdout: a once-a-second progress line, the
// runtime debug server (/metrics, /progress, /healthz, /debug/pprof/) and
// structured slog records. Exit codes: 2 for usage errors, 1 for runtime
// errors.
//
// Performance knobs (-parallel, -trace-store) change only how fast the
// simulation runs, never its result: -parallel bounds worker goroutines
// (static-shape sweep, reference pass), and -trace-store (off by default;
// "auto" resolves DRT_TRACE_CACHE or the user cache dir) serves the
// extensor-op-drt schedule from the persistent trace store when an
// earlier run recorded it (see DESIGN.md "Persistent trace store"). The
// report is byte-identical at any setting of both.
// Every run is priced by the same per-task replay that retimes a recorded
// schedule (DESIGN.md "Trace record/replay").
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"drt"

	"drt/internal/accel"
	"drt/internal/accel/extensor"
	"drt/internal/cli"
	"drt/internal/energy"
	"drt/internal/exp"
	"drt/internal/metrics"
	"drt/internal/obs"
	"drt/internal/obs/httpserve"
	"drt/internal/sim"
	"drt/internal/workloads"
)

// accelRun runs one -accel configuration.
type accelRun func(c *exp.Context, wkey string, w *accel.Workload, opt extensor.Options) (sim.Result, error)

// accelNames lists every accepted -accel value in -h order, and accelRuns
// runs each: the lower-cased names of the ExTensor variants
// (extensor.Variant.String) and of the OuterSPACE and MatRaptor designs'
// variants (accel.Design.Variant). An unknown name is a usage error,
// caught before any work starts.
var accelNames, accelRuns = accelTable()

func accelTable() ([]string, map[string]accelRun) {
	var names []string
	runs := map[string]accelRun{}
	add := func(name string, run accelRun) {
		name = strings.ToLower(name)
		names = append(names, name)
		runs[name] = run
	}
	for _, v := range []extensor.Variant{extensor.Original, extensor.OP, extensor.OPDRT} {
		// The exp context routes an eligible run (extensor-op-drt without
		// a collector) through the two-tier trace cache when -trace-store
		// attached one: a warm store replays the schedule instead of
		// re-running the engine. Every other run is exactly extensor.Run.
		add(v.String(), func(c *exp.Context, wkey string, w *accel.Workload, opt extensor.Options) (sim.Result, error) {
			return c.RunExtensor(v, wkey, w, opt)
		})
	}
	for _, d := range []accel.Design{accel.OuterSPACE, accel.MatRaptor} {
		for _, t := range []accel.Tiling{accel.Untiled, accel.SUC, accel.DRT} {
			add(d.Variant(t), func(_ *exp.Context, _ string, w *accel.Workload, opt extensor.Options) (sim.Result, error) {
				return d.Run(t, w, opt.Machine, opt.Partition, opt.Rec)
			})
		}
	}
	return names, runs
}

func main() {
	var (
		name       = flag.String("matrix", "cant", "catalog matrix name")
		accelName  = flag.String("accel", "extensor-op-drt", "accelerator: "+strings.Join(accelNames, " | "))
		scale      = flag.Int("scale", 16, "workload scale-down factor")
		microTile  = flag.Int("microtile", 16, "micro tile edge")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "worker goroutines for the static-shape sweep and the reference pass (1 = sequential)")
		traceStore = flag.String("trace-store", "off", "persistent trace store for extensor-op-drt: off, auto (DRT_TRACE_CACHE or the user cache dir), or a directory; replays schedules recorded by earlier runs (byte-identical report)")
		trace      = flag.Bool("trace", false, "render the DRT task tiling of the K×J plane as ASCII")
		jsonOut    = flag.Bool("json", false, "emit the report as JSON on stdout instead of text")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event file of the run's spans")
		metricsOut = flag.String("metrics-out", "", "write the JSON report to this file")
		progress   = flag.Bool("progress", false, "print a live progress line (engine tasks consumed) to stderr every second")
	)
	listen := cli.AddListenFlag()
	logLevel := cli.AddLogFlag()
	prof := cli.AddProfileFlags()
	cli.GroupUsage("drtsim", "Performance knobs", "parallel", "trace-store")
	flag.Parse()
	defer cli.Cleanup()
	cli.CheckScale("drtsim", *scale, *microTile)
	stopProf := prof.Start("drtsim")

	logger, err := cli.Logger(*logLevel)
	if err != nil {
		cli.Usagef("drtsim: %v", err)
	}

	if accelRuns[*accelName] == nil {
		cli.Usagef("drtsim: unknown accelerator %q (choose from %s)", *accelName, strings.Join(accelNames, ", "))
	}
	e, err := workloads.Lookup(*name)
	if err != nil {
		cli.Usagef("drtsim: %v", err)
	}

	// The collector is attached only when an observability output was
	// requested, keeping the default run on the allocation-free path.
	var rec *obs.Collector
	if *jsonOut || *traceOut != "" || *metricsOut != "" || *listen != "" {
		rec = obs.NewCollector()
		rec.SetMeta("cmd", "drtsim")
		rec.SetMeta("matrix", e.Name)
		rec.SetMeta("accel", *accelName)
		rec.SetMeta("scale", fmt.Sprint(*scale))
		rec.SetMeta("microtile", fmt.Sprint(*microTile))
		rec.SetMeta("trace-store", exp.TraceStoreDir(*traceStore))
		rec.SetMeta("seed", fmt.Sprint(e.Seed))
		if spec, err := json.Marshal(e.Spec(*scale)); err == nil {
			rec.SetMeta("workload.spec", string(spec))
		}
		for k, v := range obs.BuildMeta() {
			rec.SetMeta(k, v)
		}
	}

	// Live telemetry (stderr only — stdout is the golden-tested report).
	var prog *obs.Progress
	if *progress || *listen != "" {
		prog = obs.NewProgress()
		prog.SetPhase("generate")
		obs.SetActive(prog)
	}
	if *listen != "" {
		srv, err := httpserve.Start(*listen, httpserve.Options{Collector: rec, Progress: prog, Log: logger})
		if err != nil {
			cli.Fatalf("drtsim: -listen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "drtsim: debug server on http://%s (/metrics /progress /healthz /debug/pprof/)\n", srv.Addr)
		cli.AtExit(func() { srv.Close() })
	}
	if *progress {
		stopLine := prog.StartPrinter(os.Stderr, time.Second)
		cli.AtExit(stopLine)
		defer stopLine()
	}
	logger.Info("run start", "cmd", "drtsim", "matrix", e.Name, "accel", *accelName,
		"scale", *scale)
	runStart := time.Now()

	// The workload comes from the exp context, which records its generator
	// spec, so -trace-store keys its entries by the inputs and not by the
	// matrix name alone. drtsim generates its operand fresh and leaves the
	// on-disk operand cache alone. The shape report reads the operands, so
	// a workload the store deferred is built here, inside the generate span.
	c := exp.NewContext(exp.Options{
		Scale:          *scale,
		MicroTile:      *microTile,
		Parallel:       *parallel,
		NoOperandCache: true,
		TraceStore:     exp.TraceStoreDir(*traceStore),
	})
	genSpan := rec.Begin(obs.CatPhase, "generate")
	w, err := c.Square(e)
	if err == nil {
		w, err = w.Built()
	}
	rec.End(genSpan)
	if err != nil {
		cli.Fatalf("drtsim: %v", err)
	}
	m := c.Machine()
	if rec != nil {
		rec.SetMeta("machine.global_buffer_bytes", fmt.Sprint(m.GlobalBuffer))
		rec.SetMeta("machine.pe_buffer_bytes", fmt.Sprint(m.PEBuffer))
		rec.SetMeta("machine.pes", fmt.Sprint(m.PEs))
		rec.SetMeta("machine.dram_bandwidth_bytes_per_s", fmt.Sprint(m.DRAMBandwidth))
	}

	prog.SetPhase("simulate")
	r, err := run(c, e.Name, *accelName, w, m, *parallel, rec)
	if err != nil {
		cli.Fatalf("drtsim: %v", err)
	}
	stopProf()
	logger.Info("run end", "cmd", "drtsim", "seconds", time.Since(runStart).Seconds(),
		"tasks", r.Tasks, "cycles", r.Cycles())

	if *jsonOut {
		if err := writeJSONReport(os.Stdout, w, r, m, rec); err != nil {
			cli.Fatalf("drtsim: -json: %v", err)
		}
	} else {
		report(os.Stdout, w, r, m)
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, func(f io.Writer) error {
			return writeJSONReport(f, w, r, m, rec)
		}); err != nil {
			cli.Fatalf("drtsim: -metrics-out: %v", err)
		}
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, rec.WriteChromeTrace); err != nil {
			cli.Fatalf("drtsim: -trace-out: %v", err)
		}
	}
	if *trace {
		if err := printTrace(w, *microTile); err != nil {
			cli.Fatalf("drtsim: %v", err)
		}
	}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTrace plans the multiplication with the public DRT API and renders
// each task's K×J tile of B as a lettered rectangle over a downsampled
// canvas — nonuniform boxes, large over sparse regions, small over dense
// ones.
func printTrace(a *accel.Workload, microTile int) error {
	// Budgets sized to a fraction of the operand footprints so the plane
	// splits into enough tiles to see the nonuniform shapes.
	fa, fb := a.InputFootprint()
	capA := fa / 16
	if capA < 2<<10 {
		capA = 2 << 10
	}
	capB := fb / 16
	if capB < 4<<10 {
		capB = 4 << 10
	}
	plan, err := drt.PlanSpMSpM(a.A, a.B, drt.PlanConfig{
		MicroTile: microTile,
		BudgetA:   capA,
		BudgetB:   capB,
	})
	if err != nil {
		return err
	}
	const H, W = 32, 96
	canvas := make([][]byte, H)
	for r := range canvas {
		canvas[r] = bytes.Repeat([]byte{'.'}, W)
	}
	glyphs := []byte("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")
	n, k := a.B.Cols, a.B.Rows
	for i, t := range plan.Tasks {
		g := glyphs[i%len(glyphs)]
		r0 := t.K.Lo * H / k
		r1 := (t.K.Hi*H + k - 1) / k
		c0 := t.J.Lo * W / n
		c1 := (t.J.Hi*W + n - 1) / n
		for r := r0; r < r1 && r < H; r++ {
			for c := c0; c < c1 && c < W; c++ {
				canvas[r][c] = g
			}
		}
	}
	fmt.Printf("\nDRT task tiling of B's K×J plane (%d tasks, one glyph per task, downsampled %dx%d):\n", len(plan.Tasks), H, W)
	for _, row := range canvas {
		fmt.Println(string(row))
	}
	return nil
}

func run(c *exp.Context, wkey, name string, w *accel.Workload, m sim.Machine, parallel int, rec *obs.Collector) (sim.Result, error) {
	runAccel := accelRuns[name]
	if runAccel == nil {
		return sim.Result{}, fmt.Errorf("unknown accelerator %q", name)
	}
	exOpt := extensor.DefaultOptions()
	exOpt.Machine = m
	exOpt.Parallel = parallel
	if rec != nil {
		exOpt.Rec = rec
	}
	return runAccel(c, wkey, w, exOpt)
}

// report renders the plain-text result breakdown.
func report(out io.Writer, w *accel.Workload, r sim.Result, m sim.Machine) {
	fa, fb := w.InputFootprint()
	aRows, aCols, aNNZ := w.AShape()
	fmt.Fprintf(out, "workload %s: A %dx%d (%d nnz), MACCs %d\n",
		w.Name, aRows, aCols, aNNZ, w.MACCs)
	fmt.Fprintf(out, "input footprints: A %.3f MB, B %.3f MB, Z %.3f MB (read/write-once lower bound)\n",
		metrics.MB(fa), metrics.MB(fb), metrics.MB(w.OutputFootprint()))
	fmt.Fprintf(out, "DRAM traffic:     A %.3f MB, B %.3f MB, Z %.3f MB  (total %.3f MB)\n",
		metrics.MB(r.Traffic.A), metrics.MB(r.Traffic.B), metrics.MB(r.Traffic.Z), metrics.MB(r.Traffic.Total()))
	fmt.Fprintf(out, "arithmetic intensity: %.4f MACC/byte\n", r.AI())
	fmt.Fprintf(out, "cycles: dram %.3e, compute %.3e, extract %.3e → runtime %.3e (%.3f ms)\n",
		r.DRAMCycles, r.ComputeCycles, r.ExtractCycles, r.Cycles(), m.Seconds(r.Cycles())*1e3)
	fmt.Fprintf(out, "tasks: %d total, %d empty (skipped), %d overflows\n", r.Tasks, r.EmptyTasks, r.Overflows)
	br := energy.Estimate(r)
	fmt.Fprintf(out, "energy: %.3e J (dram %.1f%%, buffer %.1f%%, compute %.1f%%)\n",
		br.Total(), 100*br.DRAM/br.Total(), 100*br.Buffer/br.Total(), 100*br.Compute/br.Total())
}

// jsonReport is the machine-readable mirror of report: traffic in exact
// bytes (the text report's MB values are these divided by 1e6), plus the
// collector's counters and histograms.
type jsonReport struct {
	Meta     map[string]string `json:"meta,omitempty"`
	Workload struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
		Cols int    `json:"cols"`
		NNZ  int    `json:"nnz"`
	} `json:"workload"`
	MACCs   int64 `json:"maccs"`
	Traffic struct {
		ABytes     int64 `json:"a_bytes"`
		BBytes     int64 `json:"b_bytes"`
		ZBytes     int64 `json:"z_bytes"`
		TotalBytes int64 `json:"total_bytes"`
	} `json:"traffic"`
	ArithmeticIntensity float64 `json:"arithmetic_intensity"`
	Cycles              struct {
		DRAM          float64 `json:"dram"`
		Compute       float64 `json:"compute"`
		Extract       float64 `json:"extract"`
		Runtime       float64 `json:"runtime"`
		PipelineExact float64 `json:"pipeline_exact"`
		Milliseconds  float64 `json:"milliseconds"`
	} `json:"cycles"`
	Tasks struct {
		Total     int `json:"total"`
		Empty     int `json:"empty"`
		Overflows int `json:"overflows"`
	} `json:"tasks"`
	Energy struct {
		TotalJ   float64 `json:"total_j"`
		DRAMJ    float64 `json:"dram_j"`
		BufferJ  float64 `json:"buffer_j"`
		ComputeJ float64 `json:"compute_j"`
	} `json:"energy"`
	Counters   map[string]int64        `json:"counters,omitempty"`
	Histograms map[string]obs.HistStat `json:"histograms,omitempty"`
	Spans      int                     `json:"spans,omitempty"`
}

func writeJSONReport(out io.Writer, w *accel.Workload, r sim.Result, m sim.Machine, rec *obs.Collector) error {
	var rep jsonReport
	rep.Workload.Name = w.Name
	rep.Workload.Rows, rep.Workload.Cols, rep.Workload.NNZ = w.AShape()
	rep.MACCs = w.MACCs
	rep.Traffic.ABytes = r.Traffic.A
	rep.Traffic.BBytes = r.Traffic.B
	rep.Traffic.ZBytes = r.Traffic.Z
	rep.Traffic.TotalBytes = r.Traffic.Total()
	rep.ArithmeticIntensity = finite(r.AI())
	rep.Cycles.DRAM = r.DRAMCycles
	rep.Cycles.Compute = r.ComputeCycles
	rep.Cycles.Extract = r.ExtractCycles
	rep.Cycles.Runtime = r.Cycles()
	rep.Cycles.PipelineExact = r.PipelineCyclesExact
	rep.Cycles.Milliseconds = m.Seconds(r.Cycles()) * 1e3
	rep.Tasks.Total = r.Tasks
	rep.Tasks.Empty = r.EmptyTasks
	rep.Tasks.Overflows = r.Overflows
	br := energy.Estimate(r)
	rep.Energy.TotalJ = br.Total()
	rep.Energy.DRAMJ = br.DRAM
	rep.Energy.BufferJ = br.Buffer
	rep.Energy.ComputeJ = br.Compute
	if rec != nil {
		snap := rec.Snapshot()
		rep.Meta = snap.Meta
		rep.Counters = snap.Counters
		rep.Histograms = snap.Histograms
		rep.Spans = snap.Spans
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// finite clamps non-finite values (e.g. +Inf arithmetic intensity on a
// zero-traffic run) to 0 so the report stays valid JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}
