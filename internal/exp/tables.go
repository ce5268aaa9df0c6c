package exp

import (
	"fmt"

	"drt/internal/metrics"
	"drt/internal/obs"
	"drt/internal/workloads"
)

// Tab02 reproduces Table 2: the sparse-tiling taxonomy of prior work.
// This is a static reference table; the taxonomy codes are
// Static/Dynamic – Uniform/Nonuniform – Coordinate/Position (Sec. 2.3).
func (c *Context) Tab02() (*metrics.Table, error) {
	t := metrics.NewTable("Table 2: sparse tiling in prior work",
		"prior work", "method", "kernel", "tiling")
	rows := [][4]string{
		{"OuterSPACE", "HW", "SpMSpM, SpMV", "no explicit tiling"},
		{"SpArch", "HW", "SpMSpM", "S-N-P"},
		{"MatRaptor", "HW", "SpMSpM", "no explicit tiling"},
		{"GAMMA", "HW", "SpMSpM", "D-N-C (limited)"},
		{"ExTensor", "HW", "SpMSpM, SpMM, TTM/V, SDDMM", "S-U-C"},
		{"ALRESCHA", "HW", "SpMV, PCG", "S-U-C"},
		{"Near Memory SpMM", "SW(GPU)", "SpMM", "D-N-C"},
		{"ASpT", "SW(CPU,GPU)", "SpMM, SDDMM", "S-U-P dense, S-N-P sparse"},
		{"Locally Adaptive SpMV", "SW(GPU)", "SpMV", "S-U-P"},
		{"Hierarchical 1-D Tiling", "SW(GPU)", "SpMM/V, SDDMM", "S-N-P"},
		{"Merge-based SpMM/V", "SW(GPU)", "SpMM/V", "S-U-P"},
		{"GrateTile", "Storage format", "CNN (SpMM, SDDMM)", "S-N-C"},
		{"J Stream", "SW", "SpMM, SDDMM", "S-U-C"},
		{"Split Unaligned Blocks", "Storage format", "SpMV", "S-U-P"},
		{"DRT (this work)", "HW + SW", "any Einsum", "D-N-C"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3])
	}
	return t, nil
}

// Tab03 reproduces Table 3: the matrix inventory, reporting both the
// full-scale targets and the generated (scaled) realizations.
func (c *Context) Tab03() (*metrics.Table, error) {
	t := metrics.NewTable("Table 3: sparse matrices (target vs generated at current scale)",
		"matrix", "pattern", "target-dims", "target-nnz", "gen-dims", "gen-nnz", "gen-density", "row-var")
	entries := shardBlock(c.Opt.Shard, workloads.Table3)
	type statRow struct {
		rows, nnz       int
		density, rowVar float64
	}
	rows, err := forEntries(c, entries, func(e workloads.Entry) (statRow, error) {
		// Through the operand cache: at -scale 1 a warm run mmaps the
		// stored .drtb instead of regenerating ~10M-nnz matrices.
		op, err := c.operand(e.Spec(c.Opt.Scale), obs.OrNop(c.Opt.Rec))
		if err != nil {
			return statRow{}, fmt.Errorf("exp: %s: %w", e.Name, err)
		}
		return statRow{rows: op.Rows, nnz: op.NNZ(), density: op.Density(), rowVar: op.RowNNZVariation()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range entries {
		t.AddRow(e.Name, e.Pattern.String(),
			e.N, e.NNZ,
			rows[i].rows, rows[i].nnz, rows[i].density, rows[i].rowVar)
	}
	return t, nil
}

// Runner maps experiment identifiers to their implementations; drtbench
// and the root benchmarks both dispatch through it.
func (c *Context) Runner(id string) (func() (*metrics.Table, error), bool) {
	m := map[string]func() (*metrics.Table, error){
		"fig1":     c.Fig01,
		"fig6":     c.Fig06,
		"fig7":     c.Fig07,
		"fig8":     c.Fig08,
		"fig9":     c.Fig09,
		"fig10":    c.Fig10,
		"fig11":    c.Fig11,
		"fig12":    c.Fig12,
		"fig13":    c.Fig13,
		"fig14":    c.Fig14,
		"fig15":    c.Fig15,
		"fig16":    c.Fig16,
		"fig17":    c.Fig17,
		"sec65":    c.Sec65,
		"tab2":     c.Tab02,
		"tab3":     c.Tab03,
		"abl-tcc":  c.AblTCC,
		"abl-auto": c.AblAutoTile,
		"abl-part": c.AblDynPart,
		"abl-pipe": c.AblPipeline,
	}
	f, ok := m[id]
	return f, ok
}

// Experiments lists all experiment identifiers in presentation order.
func Experiments() []string {
	return []string{
		"fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"sec65", "tab2", "tab3",
		"abl-tcc", "abl-auto", "abl-part", "abl-pipe",
	}
}
