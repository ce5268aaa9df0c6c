// Package accel holds the pieces shared by all modeled accelerators: the
// Workload bundle (operands, their micro-tile grids, and the reference
// product's MACC count and output grid, used for output-traffic
// accounting) and the generic task-stream traffic/compute engine that each
// accelerator configures with its own dataflow.
package accel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"drt/internal/core"
	"drt/internal/kernels"
	"drt/internal/tensor"
	"drt/internal/tiling"
)

// WorkloadConfig bundles the pre-processing knobs of workload construction.
// The zero value reproduces the historical defaults: T-UC micro tiles,
// sequential reference pass.
type WorkloadConfig struct {
	MicroTile int
	Format    tiling.Format
	// Parallel is the reference-pass worker count: 0 or 1 run
	// sequentially, <0 selects one worker per CPU. The pass counts
	// integers, so its result is identical at any worker count and this
	// only affects wall time.
	Parallel int
}

// Workload is one SpMSpM instance Z = A·B prepared for simulation: the
// operands pre-processed into micro tiles (Sec. 5.2.4) and the reference
// product's structure — its effectual MACCs and the per-micro-tile
// occupancy of Z — counted once and shared by every accelerator variant
// (the paper validates simulator output sparsity against MKL; the engines
// check their MACC totals against this reference). Z itself is never
// built: every consumer reads counts.
//
// A workload is either built — operands, grids and MACCs in place — or
// deferred (see Deferred): it then carries only Name, MicroTile and
// MACCs, answers the summary accessors (Summary, InputFootprint,
// OutputFootprint, StreamedBBytes) from a stored summary, and builds the
// rest on first demand. The engine entry points (RunTasks, RecordTasks,
// Retile, the accelerator packages' runs and sweeps) build it themselves;
// any other reader of operands or grids calls Built first.
type Workload struct {
	Name      string
	A, B      *tensor.CSR
	MicroTile int

	GA *tiling.Grid // A as I×K (rows I)
	GB *tiling.Grid // B as K×J (rows K)
	GZ *tiling.Grid // structural Z = A·B as I×J

	MACCs int64

	// pending is a deferred workload's build; nil on a built workload.
	pending *pendingBuild
}

// pendingBuild is a deferred workload's stored summary and its one build.
type pendingBuild struct {
	sum   WorkloadSummary
	once  sync.Once
	build func() (*Workload, error)
	built atomic.Pointer[Workload]
	err   error
}

// Deferred returns a workload that answers MACCs and the summary accessors
// from sum at once and builds everything else — operands, grids and the
// reference pass — by calling build the first time Built (or an engine
// entry point) asks. The build runs once however many goroutines race on
// it. Once built, the summary accessors answer from the built workload,
// so a stored summary that disagrees with its build stops being read. The
// MACCs field keeps sum's value: callers read it without synchronization,
// so nothing writes it after construction.
func Deferred(name string, microTile int, sum WorkloadSummary, build func() (*Workload, error)) *Workload {
	return &Workload{Name: name, MicroTile: microTile, MACCs: sum.MACCs,
		pending: &pendingBuild{sum: sum, build: build}}
}

// Built returns the workload with its operands, grids and reference counts
// in place: w itself when w was built eagerly, otherwise the one build of
// the deferred workload, run now if nothing ran it yet.
func (w *Workload) Built() (*Workload, error) {
	p := w.pending
	if p == nil {
		return w, nil
	}
	p.once.Do(func() {
		b, err := p.build()
		if err != nil {
			p.err = err
			return
		}
		p.build = nil
		p.built.Store(b)
	})
	if b := p.built.Load(); b != nil {
		return b, nil
	}
	return nil, p.err
}

// current returns the built form of w when there is one — w itself, or a
// deferred workload's finished build — and nil while w is still deferred.
func (w *Workload) current() *Workload {
	if w.pending == nil {
		return w
	}
	return w.pending.built.Load()
}

// NewWorkload pre-processes one SpMSpM instance with the given micro tile
// edge in the default T-UC micro tile representation.
func NewWorkload(name string, a, b *tensor.CSR, microTile int) (*Workload, error) {
	return NewWorkloadWith(name, a, b, WorkloadConfig{MicroTile: microTile})
}

// NewWorkloadWithFormat is NewWorkload with an explicit micro-tile
// representation (Sec. 6.3 expects T-CC to resolve the metadata-overhead
// outliers of the software study).
func NewWorkloadWithFormat(name string, a, b *tensor.CSR, microTile int, f tiling.Format) (*Workload, error) {
	return NewWorkloadWith(name, a, b, WorkloadConfig{MicroTile: microTile, Format: f})
}

// NewWorkloadWith is NewWorkload with the full configuration bundle.
func NewWorkloadWith(name string, a, b *tensor.CSR, cfg WorkloadConfig) (*Workload, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("accel: %s: A is %dx%d but B is %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	mt := cfg.MicroTile
	if mt < 1 {
		return nil, fmt.Errorf("accel: %s: micro tile %d", name, mt)
	}
	return finishWorkload(&Workload{Name: name, A: a, B: b, MicroTile: mt}, cfg), nil
}

// finishWorkload builds the operand grids over the already-installed
// operands, a square self-product (B and A the same tensor) sharing one
// grid for both, then counts Z = A·B per micro tile
// (kernels.CountProductTiles, over cfg.Parallel workers) straight into
// Z's summary grid along with the product's effectual MACCs.
func finishWorkload(w *Workload, cfg WorkloadConfig) *Workload {
	mt := w.MicroTile
	w.GA = tiling.NewSummaryGrid(w.A, mt, mt, cfg.Format, tiling.Auto)
	w.GB = w.GA
	if w.B != w.A {
		w.GB = tiling.NewSummaryGrid(w.B, mt, mt, cfg.Format, tiling.Auto)
	}
	workers := cfg.Parallel
	if workers == 0 {
		workers = 1
	}
	sb := tiling.NewSummaryBuilder(w.A.Rows, w.B.Cols, mt, mt, cfg.Format)
	w.MACCs = kernels.CountProductTiles(w.A, w.B, mt, workers, sb.AddRow)
	w.GZ = sb.Summary()
	return w
}

// Retile returns a workload sharing this one's operands but tiled under a
// new configuration: the operand grids are rebuilt and the reference
// product is counted again at the new micro tile, so the result is
// identical to NewWorkloadWith on the same operands. Like NewWorkloadWith,
// a square self-product (B and A the same tensor) shares one grid for
// both operands. A deferred workload is built first.
func (w *Workload) Retile(cfg WorkloadConfig) (*Workload, error) {
	mt := cfg.MicroTile
	if mt < 1 {
		return nil, fmt.Errorf("accel: %s: micro tile %d", w.Name, mt)
	}
	w, err := w.Built()
	if err != nil {
		return nil, err
	}
	return finishWorkload(&Workload{Name: w.Name, A: w.A, B: w.B, MicroTile: mt}, cfg), nil
}

// AShape returns A's shape and occupancy. The engine reads w.A itself;
// cmd/drtsim's report and figbench's layer probes call this.
func (w *Workload) AShape() (rows, cols, nnz int) { return w.A.Rows, w.A.Cols, w.A.NNZ() }

// BCols returns the output column extent (B's column count). The engine
// reads w.B itself; figbench's layer probes call this.
func (w *Workload) BCols() int { return w.B.Cols }

// Restricted counts the range-restricted partial product
// (kernels.RestrictedGustavson), the engine's per-task kernel. The engine
// calls the kernel itself; figbench's layer probes call this.
func (w *Workload) Restricted(iR, kR, jR kernels.Range, spa *kernels.SPA) kernels.TaskResult {
	return kernels.RestrictedGustavson(w.A, w.B, iR, kR, jR, spa)
}

// Kernel assembles the I,J,K DRT kernel description for this workload with
// the given input-operand partition capacities.
func (w *Workload) Kernel(capA, capB int64) *core.Kernel {
	gaR, gaC := w.GA.Extents()
	_, gbC := w.GB.Extents()
	return &core.Kernel{
		DimNames:   []string{"I", "J", "K"},
		Contracted: []bool{false, false, true},
		Extent:     []int{gaR, gbC, gaC},
		Operands: []core.Operand{
			{Name: "A", Dims: []int{dimI, dimK}, View: core.MatrixView{G: w.GA}, Capacity: capA},
			{Name: "B", Dims: []int{dimK, dimJ}, View: core.MatrixView{G: w.GB}, Capacity: capB},
		},
	}
}

// KernelWithOutput additionally registers the output tensor Z(I,J) so its
// tile footprint constrains growth against the output partition, as
// Algorithm 1's buffer-capacity check requires. Its view is the reference
// product's structural grid — an oracle occupancy estimate standing in
// for the hardware's provisioning heuristics (the paper notes output
// footprint "is difficult to predict/provision" before intersections run;
// see DESIGN.md §3).
func (w *Workload) KernelWithOutput(capA, capB, capO int64) *core.Kernel {
	k := w.Kernel(capA, capB)
	k.Operands = append(k.Operands, core.Operand{
		Name: "Z", Dims: []int{dimI, dimJ},
		View: core.MatrixView{G: w.GZ}, Capacity: capO, Output: true,
	})
	return k
}

// Dimension indices of the SpMSpM kernel space.
const (
	dimI = 0
	dimJ = 1
	dimK = 2
)

// DimI, DimJ and DimK export the kernel dimension indices for loop-order
// construction by accelerator packages.
const (
	DimI = dimI
	DimJ = dimJ
	DimK = dimK
)

// OpA and OpB are the operand indices in the kernel built by Kernel.
const (
	OpA = 0
	OpB = 1
)

// InputFootprint returns the one-pass byte footprints of the operands in
// their micro-tiled representations — the traffic lower bound components of
// Fig. 1 (read each input once).
func (w *Workload) InputFootprint() (a, b int64) {
	if c := w.current(); c != nil {
		return c.GA.TotalFootprint(), c.GB.TotalFootprint()
	}
	return w.pending.sum.AFootprint, w.pending.sum.BFootprint
}

// OutputFootprint returns the one-pass write footprint of the result.
func (w *Workload) OutputFootprint() int64 {
	if c := w.current(); c != nil {
		return c.GZ.TotalFootprint()
	}
	return w.pending.sum.ZFootprint
}

// StreamedBBytes returns the workload's no-reuse B row-fetch volume (see
// the package-level StreamedBBytes).
func (w *Workload) StreamedBBytes() int64 {
	if c := w.current(); c != nil {
		return StreamedBBytes(c.A, c.B)
	}
	return w.pending.sum.StreamedB
}

// Summary returns every summary accessor's answer at once: the record the
// trace store keeps for a workload, and all a deferred workload knows
// before it is built.
func (w *Workload) Summary() WorkloadSummary {
	c := w.current()
	if c == nil {
		return w.pending.sum
	}
	fa, fb := c.InputFootprint()
	return WorkloadSummary{MACCs: c.MACCs, AFootprint: fa, BFootprint: fb,
		ZFootprint: c.OutputFootprint(), StreamedB: c.StreamedBBytes()}
}
