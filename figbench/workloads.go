package main

import (
	"fmt"

	"drt/internal/accel/extensor"
	"drt/internal/core"
	"drt/internal/exp"
	"drt/internal/sim"
	"drt/internal/workloads"
)

// spec is one benchmark workload: the paper figures it runs through the
// exp runners, at which scale, and whether its timed phase runs cold or
// against a trace store its set-up recorded. README.md says why each one
// exists.
type spec struct {
	Name         string
	Scale        int
	MaxWorkloads int
	Figs         []string
	Warm         bool
}

// microTile is the S-U-C micro tile edge every workload uses (drtbench's
// default).
const microTile = 16

var specs = []spec{
	{Name: "fig6-cold", Scale: 256, Figs: []string{"fig6"}},
	{Name: "fig14-cold", Scale: 128, MaxWorkloads: 6, Figs: []string{"fig14"}},
	{Name: "retimed-warm", Scale: 96, Figs: []string{"fig12", "fig15", "fig16"}, Warm: true},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// options is the exp configuration of one pass: one worker, no streaming,
// no operand cache, and the trace store at store ("" keeps it off).
func (s spec) options(store string) exp.Options {
	return exp.Options{
		Scale:          s.Scale,
		MicroTile:      microTile,
		MaxWorkloads:   s.MaxWorkloads,
		Parallel:       1,
		NoOperandCache: true,
		TraceStore:     store,
	}
}

// entries returns the catalog entries the workload's figures read, picked
// the way exp picks them under MaxWorkloads (alternating the diamond and
// unstructured groups so both stay represented), with every generator
// seed offset by seed. Seed 0 reproduces drtbench's inputs exactly.
func (s spec) entries(seed int64) []workloads.Entry {
	set := workloads.Fig6Set()
	if n := s.MaxWorkloads; n > 0 && n < len(set) {
		var groups [2][]workloads.Entry
		for _, e := range set {
			g := 1
			if e.Pattern == workloads.Diamond {
				g = 0
			}
			groups[g] = append(groups[g], e)
		}
		set = set[:0:0]
		for i := 0; len(set) < n; i++ {
			for _, g := range groups {
				if i < len(g) && len(set) < n {
					set = append(set, g[i])
				}
			}
		}
	}
	out := make([]workloads.Entry, len(set))
	for i, e := range set {
		e.Seed += seed
		out[i] = e
	}
	return out
}

// prepare builds every seeded workload into c's memo, so the runners that
// follow look each one up by name instead of generating the catalog
// default.
func prepare(c *exp.Context, entries []workloads.Entry) error {
	for _, e := range entries {
		if _, err := c.Square(e); err != nil {
			return err
		}
	}
	return nil
}

// runFig calls one figure runner and renders its table.
func runFig(c *exp.Context, id string) (string, error) {
	f, ok := c.Runner(id)
	if !ok {
		return "", fmt.Errorf("unknown experiment %q", id)
	}
	t, err := f()
	if err != nil {
		return "", fmt.Errorf("%s: %w", id, err)
	}
	return t.String(), nil
}

// cell is one engine run a figure makes: variant v of the workload under
// opt. The layer pass walks the same cells.
type cell struct {
	entry int
	v     extensor.Variant
	opt   extensor.Options
}

// cells lists the engine runs of the workload's figures over n prepared
// entries, mirroring the runners' sweeps. The S-U-C variants are listed
// without a shape; the layer pass pins the one BestStaticShape returns.
func (s spec) cells(c *exp.Context, n int) []cell {
	base := extensor.DefaultOptions()
	base.Machine = c.Machine()
	base.Parallel = 1
	var out []cell
	switch s.Name {
	case "fig6-cold":
		for i := 0; i < n; i++ {
			for _, v := range []extensor.Variant{extensor.Original, extensor.OP, extensor.OPDRT} {
				out = append(out, cell{entry: i, v: v, opt: base})
			}
		}
	case "fig14-cold":
		for _, p := range fig14Partitions() {
			for i := 0; i < n && i < 6; i++ {
				opt := base
				opt.Partition = p
				out = append(out, cell{entry: i, v: extensor.OPDRT, opt: opt})
			}
		}
	case "retimed-warm":
		// Distinct schedules only: Fig. 12's machine points, Fig. 15's
		// greedy run and Fig. 16's startJ=1 column share one trace.
		for i := 0; i < n; i++ {
			alt := base
			alt.Strategy = core.Alternating
			out = append(out, cell{entry: i, v: extensor.OPDRT, opt: base}, cell{entry: i, v: extensor.OPDRT, opt: alt})
		}
		for i := 0; i < n && i < 6; i++ {
			for _, j := range []int{2, 4, 8, 16} {
				opt := base
				opt.InitialSize = []int{1, j, 1}
				out = append(out, cell{entry: i, v: extensor.OPDRT, opt: opt})
			}
		}
	}
	return out
}

// fig14Partitions is Fig. 14's admissible A/B/O split grid.
func fig14Partitions() []sim.Partition {
	var parts []sim.Partition
	for _, af := range []float64{0.05, 0.10, 0.20, 0.40} {
		for _, bf := range []float64{0.10, 0.30, 0.50, 0.70} {
			if of := 1 - af - bf; of >= 0.05 {
				parts = append(parts, sim.Partition{AFrac: af, BFrac: bf, OFrac: of})
			}
		}
	}
	return parts
}

// fig12Configs is Fig. 12's twelve (bandwidth, intersection unit) points
// over base, the batch one recorded schedule is priced under.
func fig12Configs(base extensor.Options) []extensor.Options {
	var out []extensor.Options
	for _, mult := range []float64{1, 2, 4, 8} {
		for _, k := range []sim.IntersectKind{sim.SkipBased, sim.Parallel, sim.SerialOptimal} {
			opt := base
			opt.Machine.DRAMBandwidth *= mult
			opt.Intersect = k
			out = append(out, opt)
		}
	}
	return out
}
