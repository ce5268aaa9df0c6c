// Command drtvalidate runs the functional-correctness checks the paper
// performs on its simulator ("we validate the output sparsity produced by
// the simulation against the results from Intel MKL", Sec. 5.2.1), with
// the exact Gustavson reference playing MKL's role:
//
//   - the three dataflow reference kernels agree with each other and with
//     dense arithmetic on every catalog matrix;
//   - every accelerator configuration's task partition covers the
//     kernel's effectual MACCs exactly (checked inside the engine);
//   - DRT plans executed through the public API reproduce the exact
//     product.
//
// Usage:
//
//	drtvalidate            # whole catalog at the default scale
//	drtvalidate -scale 64  # faster
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"drt"

	"drt/internal/accel"
	"drt/internal/accel/extensor"
	"drt/internal/cli"
	"drt/internal/kernels"
	"drt/internal/obs"
	"drt/internal/obs/httpserve"
	"drt/internal/workloads"
)

func main() {
	var (
		scale     = flag.Int("scale", 48, "workload scale-down factor")
		microTile = flag.Int("microtile", 8, "micro tile edge")
	)
	listen := cli.AddListenFlag()
	logLevel := cli.AddLogFlag()
	prof := cli.AddProfileFlags()
	flag.Parse()
	defer cli.Cleanup()
	cli.CheckScale("drtvalidate", *scale, *microTile)
	stopProf := prof.Start("drtvalidate")

	logger, err := cli.Logger(*logLevel)
	if err != nil {
		cli.Usagef("drtvalidate: %v", err)
	}
	var prog *obs.Progress
	if *listen != "" {
		prog = obs.NewProgress()
		prog.SetPhase("validate")
		prog.AddCells(int64(len(workloads.Table3)), int64(len(workloads.Table3)))
		obs.SetActive(prog)
		srv, err := httpserve.Start(*listen, httpserve.Options{Progress: prog, Log: logger})
		if err != nil {
			cli.Fatalf("drtvalidate: -listen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "drtvalidate: debug server on http://%s (/metrics /progress /healthz /debug/pprof/)\n", srv.Addr)
		cli.AtExit(func() { srv.Close() })
	}
	logger.Info("run start", "cmd", "drtvalidate", "scale", *scale, "workloads", len(workloads.Table3))
	runStart := time.Now()

	failures := 0
	for _, e := range workloads.Table3 {
		prog.UnitStart(e.Name)
		start := time.Now()
		err := validate(e, *scale, *microTile)
		prog.UnitEnd(e.Name)
		prog.CellDone(0, time.Since(start), 1)
		logger.Info("workload validated", "matrix", e.Name, "seconds", time.Since(start).Seconds(), "err", err)
		if err != nil {
			fmt.Printf("FAIL  %-20s %v\n", e.Name, err)
			failures++
		} else {
			fmt.Printf("ok    %s\n", e.Name)
		}
	}
	stopProf()
	logger.Info("run end", "cmd", "drtvalidate", "seconds", time.Since(runStart).Seconds(), "failures", failures)
	if failures > 0 {
		cli.Fatalf("drtvalidate: %d of %d workloads failed", failures, len(workloads.Table3))
	}
	fmt.Printf("all %d workloads validated\n", len(workloads.Table3))
}

func validate(e workloads.Entry, scale, microTile int) error {
	a := e.Generate(scale)

	// 1. Dataflow agreement: Gustavson, inner product and outer product
	// must produce identical outputs and identical effectual MACCs.
	zg, sg := kernels.Gustavson(a, a)
	zi, si, _ := kernels.InnerProduct(a, a.Transpose())
	zo, so, _ := kernels.OuterProduct(a.Transpose(), a)
	if !zg.EqualApprox(zi, 1e-6) || !zg.EqualApprox(zo, 1e-6) {
		return fmt.Errorf("dataflow outputs disagree")
	}
	if sg.MACCs != si.MACCs || sg.MACCs != so.MACCs {
		return fmt.Errorf("dataflow MACCs disagree: %d/%d/%d", sg.MACCs, si.MACCs, so.MACCs)
	}

	// 2. Simulator coverage: each ExTensor variant's task partition must
	// cover the kernel exactly (RunTasks errors otherwise) and report the
	// invariant MACC count.
	w, err := accel.NewWorkload(e.Name, a, a, microTile)
	if err != nil {
		return err
	}
	opt := extensor.DefaultOptions()
	opt.Machine.GlobalBuffer /= int64(scale)
	if opt.Machine.GlobalBuffer < 32<<10 {
		opt.Machine.GlobalBuffer = 32 << 10
	}
	for _, v := range []extensor.Variant{extensor.Original, extensor.OP, extensor.OPDRT} {
		r, err := extensor.Run(v, w, opt)
		if err != nil {
			return fmt.Errorf("%v: %w", v, err)
		}
		if r.MACCs != sg.MACCs {
			return fmt.Errorf("%v covered %d MACCs, reference %d", v, r.MACCs, sg.MACCs)
		}
	}

	// 3. Public API: a DRT plan executes to the exact product.
	plan, err := drt.PlanSpMSpM(a, a, drt.PlanConfig{
		MicroTile: microTile,
		BudgetA:   opt.Machine.GlobalBuffer / 10,
		BudgetB:   opt.Machine.GlobalBuffer / 2,
	})
	if err != nil {
		return err
	}
	got, err := plan.Execute(a, a)
	if err != nil {
		return err
	}
	if !got.EqualApprox(zg, 1e-6) {
		return fmt.Errorf("plan execution diverged from reference product")
	}
	return nil
}
