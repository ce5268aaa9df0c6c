// Package core implements dynamic reflexive tiling (DRT), the paper's
// primary contribution (Sec. 3): an online heuristic that builds
// dynamic–nonuniform–coordinate-space (D-N-C) macro tiles from statically
// built S-U-C micro tiles, co-tiling all participating tensors so that
// shared (co-iterated) dimensions cover identical coordinate ranges.
//
// The package is dataflow-independent: a Kernel describes the Einsum's
// iteration space (dimensions, which are contracted, their grid extents in
// micro tiles), each Operand projects a subset of those dimensions onto a
// footprint-query view, and a loop order supplies both the task traversal
// order and the stationarity ranking that Algorithm 1 grows tensors in.
//
// BuildTask is Algorithm 1 (with Algorithm 2's growDims inside); the
// Enumerator repeatedly invokes it to partition the full iteration space
// into Einsum tasks, rebuilding exactly the tiles of tensors that are less
// stationary than the dimension that advanced — reproducing the task
// sequences of Fig. 3.
package core

import (
	"fmt"
)

// Range is a half-open interval [Lo, Hi) of micro-tile grid coordinates.
type Range struct {
	Lo, Hi int
}

// Len returns the number of grid coordinates covered.
func (r Range) Len() int { return r.Hi - r.Lo }

// View answers region queries for one operand in its own axis order. The
// ranges slice has one entry per operand dimension (see Operand.Dims).
// Implementations are the prefix-sum grids in internal/tiling.
type View interface {
	// Footprint returns the byte footprint of the macro tile covering the
	// region (stored micro tiles plus their outer metadata).
	Footprint(ranges []Range) int64
	// NNZ returns the region occupancy.
	NNZ(ranges []Range) int64
	// Tiles returns the number of stored micro tiles in the region; it
	// drives the extractor's Aggregate scan-cost model.
	Tiles(ranges []Range) int64
}

// Operand is one tensor of the Einsum task — an input, or the output when
// Output is set.
type Operand struct {
	Name string
	// Dims lists the kernel dimensions this operand is indexed by, in the
	// operand's own axis order (e.g. A(I,K) → [dimI, dimK]).
	Dims []int
	View View
	// Capacity is the operand's buffer partition in bytes (Sec. 5.2.4
	// statically splits all on-chip buffers across tensors).
	Capacity int64
	// Output marks the Einsum's result tensor: its footprint constrains
	// growth exactly like an input's (Sec. 3.1 counts the output among
	// the tiles a dimension change affects, and Alg. 1 grows until "the
	// sum of tile footprints exceed buffer capacity"), but an empty
	// output region does not make a task skippable — inputs alone decide
	// that, since output occupancy is in general unknown before the
	// intersections run.
	Output bool
}

// Kernel describes the Einsum iteration space at micro-tile granularity.
type Kernel struct {
	DimNames   []string // e.g. ["I", "J", "K"]
	Contracted []bool   // per dimension: is it reduced over?
	Extent     []int    // grid extent per dimension (micro tiles)
	Operands   []Operand
}

// NDims returns the number of kernel dimensions.
func (k *Kernel) NDims() int { return len(k.DimNames) }

// Validate checks structural consistency of the kernel description.
func (k *Kernel) Validate() error {
	n := k.NDims()
	if len(k.Contracted) != n || len(k.Extent) != n {
		return fmt.Errorf("core: kernel has %d dims but %d contracted flags, %d extents", n, len(k.Contracted), len(k.Extent))
	}
	for d, e := range k.Extent {
		if e < 0 {
			return fmt.Errorf("core: dimension %s has negative extent %d", k.DimNames[d], e)
		}
	}
	for _, op := range k.Operands {
		if op.View == nil {
			return fmt.Errorf("core: operand %s has no view", op.Name)
		}
		if op.Capacity <= 0 {
			return fmt.Errorf("core: operand %s has capacity %d", op.Name, op.Capacity)
		}
		for _, d := range op.Dims {
			if d < 0 || d >= n {
				return fmt.Errorf("core: operand %s references dimension %d of %d", op.Name, d, n)
			}
		}
	}
	return nil
}

// Strategy selects the order in which growDims expands an operand's
// dimensions (Alg. 2, selectDimToGrow).
type Strategy int

const (
	// GreedyContractedFirst grows each contracted dimension of the tensor
	// to exhaustion, then each uncontracted dimension — the paper's
	// default, which favors output locality (Sec. 3.2).
	GreedyContractedFirst Strategy = iota
	// Alternating round-robins one growth step across the tensor's
	// dimensions, keeping tiles square-ish to balance input/output
	// locality (evaluated in Sec. 6.3/6.6 and Fig. 15).
	Alternating
	// Static disables growth entirely: tiles keep their initial sizes.
	// With a fixed InitialSize this reproduces the S-U-C baseline
	// (ExTensor-style static uniform coordinate tiling).
	Static
)

// String returns the strategy's name.
func (s Strategy) String() string {
	switch s {
	case GreedyContractedFirst:
		return "greedy-contracted-first"
	case Alternating:
		return "alternating"
	case Static:
		return "static"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Config carries the tunables of Algorithm 1.
type Config struct {
	// LoopOrder lists kernel dimensions outermost→innermost; it defines
	// both the task traversal and operand stationarity.
	LoopOrder []int
	Strategy  Strategy
	// InitialSize is the starting tile size per kernel dimension in micro
	// tiles (Alg. 1 line 5). Zero entries default to 1.
	InitialSize []int
	// GrowStep is the per-probe growth amount n (Alg. 2 line 13);
	// defaults to 1.
	GrowStep int
	// Window restricts the iteration space to a sub-box; hierarchical DRT
	// (an inner level re-tiling one outer task) sets it to the outer
	// task's ranges. Nil means the full extent.
	Window []Range
}

// Task is one Einsum task: a coordinate-range restriction of the kernel
// (Equation 2), expressed in micro-tile grid coordinates.
type Task struct {
	// Ranges has one entry per kernel dimension.
	Ranges []Range
	// OpFootprint and OpNNZ record, per operand, the macro tile the task
	// loads into that operand's partition.
	OpFootprint []int64
	OpNNZ       []int64
	OpTiles     []int64
	// Rebuilt marks the operands whose tiles were (re)loaded for this
	// task; the others' tiles remained resident from a prior task and
	// incur no new traffic.
	Rebuilt []bool
	// Empty marks a task in which at least one operand's tile holds no
	// non-zeros; such tasks are skipped by the compute/traffic pipeline
	// but still advance the iteration space (Fig. 3a "tasks involving
	// empty tiles are skipped").
	Empty bool
	// Overflow marks a task in which some operand exceeded its partition
	// even at minimum tile size (a single micro-tile slab larger than the
	// buffer); accelerator models stream such tiles.
	Overflow bool
	// Probes counts tryToGrow footprint probes, and ScanTiles the micro
	// tile metadata entries the Aggregate unit scanned; both feed the tile
	// extractor cycle model.
	Probes    int
	ScanTiles int64
}

// Range returns the task's range for kernel dimension d.
func (t *Task) Range(d int) Range { return t.Ranges[d] }

// Clone returns a deep copy of the task. Tasks returned by
// Enumerator.Next share the enumerator's pooled scratch and are only
// valid until the next call; callers that retain a task across calls
// must Clone it first.
func (t *Task) Clone() Task {
	c := *t
	c.Ranges = append([]Range(nil), t.Ranges...)
	c.OpFootprint = append([]int64(nil), t.OpFootprint...)
	c.OpNNZ = append([]int64(nil), t.OpNNZ...)
	c.OpTiles = append([]int64(nil), t.OpTiles...)
	c.Rebuilt = append([]bool(nil), t.Rebuilt...)
	return c
}
