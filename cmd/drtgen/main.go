// Command drtgen generates and inspects the synthetic workload catalog:
// it prints per-matrix statistics (dimensions, occupancy, density, row
// variation, micro-tile occupancy histogram) so the stand-ins can be
// compared against the Table 3 targets.
//
// Usage:
//
//	drtgen                      # summary of the whole catalog
//	drtgen -matrix pwtk         # one matrix in detail
//	drtgen -matrix pwtk -scale 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"time"

	"drt/internal/cli"
	"drt/internal/metrics"
	"drt/internal/obs"
	"drt/internal/obs/httpserve"
	"drt/internal/tiling"
	"drt/internal/workloads"
)

func main() {
	var (
		name      = flag.String("matrix", "", "matrix name (empty = whole catalog)")
		scale     = flag.Int("scale", 16, "scale-down factor")
		microTile = flag.Int("microtile", 16, "micro tile edge for the occupancy histogram")
	)
	listen := cli.AddListenFlag()
	logLevel := cli.AddLogFlag()
	prof := cli.AddProfileFlags()
	flag.Parse()
	defer cli.Cleanup()
	cli.CheckScale("drtgen", *scale, *microTile)
	stopProf := prof.Start("drtgen")
	defer stopProf()

	logger, err := cli.Logger(*logLevel)
	if err != nil {
		cli.Usagef("drtgen: %v", err)
	}
	if *listen != "" {
		prog := obs.NewProgress()
		prog.SetPhase("generate")
		obs.SetActive(prog)
		srv, err := httpserve.Start(*listen, httpserve.Options{Progress: prog, Log: logger})
		if err != nil {
			cli.Fatalf("drtgen: -listen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "drtgen: debug server on http://%s (/metrics /progress /healthz /debug/pprof/)\n", srv.Addr)
		cli.AtExit(func() { srv.Close() })
	}
	logger.Info("run start", "cmd", "drtgen", "matrix", *name, "scale", *scale)
	runStart := time.Now()
	defer func() {
		logger.Info("run end", "cmd", "drtgen", "seconds", time.Since(runStart).Seconds())
	}()

	if *name == "" {
		t := metrics.NewTable(fmt.Sprintf("Catalog at scale %d", *scale),
			"matrix", "pattern", "dims", "nnz", "density", "row-var", "footprint-MB")
		for _, e := range workloads.Table3 {
			m := e.Generate(*scale)
			t.AddRow(e.Name, e.Pattern.String(),
				fmt.Sprintf("%dx%d", m.Rows, m.Cols), m.NNZ(), m.Density(),
				m.RowNNZVariation(), metrics.MB(m.Footprint()))
		}
		fmt.Println(t.String())
		return
	}

	e, err := workloads.Lookup(*name)
	if err != nil {
		cli.Usagef("drtgen: %v", err)
	}
	m := e.Generate(*scale)
	fmt.Printf("%s (scale %d): %dx%d, %d non-zeros, density %.3e, row variation %.3f\n",
		e.Name, *scale, m.Rows, m.Cols, m.NNZ(), m.Density(), m.RowNNZVariation())
	if spec, err := json.Marshal(e.Spec(*scale)); err == nil {
		fmt.Printf("generator spec: %s\n", spec)
	}

	g := tiling.NewSummaryGrid(m, *microTile, *microTile, tiling.TUC, tiling.Auto)
	// Occupancy histogram over non-empty micro tiles: hist[b] counts the
	// tiles holding [2^b, 2^(b+1)) non-zeros.
	var hist []int64
	var nonEmpty int64
	g.EachTile(func(_, _ int, n, _ int64) {
		nonEmpty++
		b := bits.Len64(uint64(n)) - 1
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	})
	gr, gc := g.Extents()
	fmt.Printf("micro tiles (%dx%d): %d of %d non-empty (%.2f%%)\n",
		*microTile, *microTile, nonEmpty, int64(gr)*int64(gc),
		100*float64(nonEmpty)/float64(int64(gr)*int64(gc)))
	fmt.Println("occupancy histogram (log2 buckets of nnz per stored micro tile):")
	for b, n := range hist {
		if n > 0 {
			fmt.Printf("  [%4d..%4d): %d tiles\n", 1<<b, 1<<(b+1), n)
		}
	}
}
