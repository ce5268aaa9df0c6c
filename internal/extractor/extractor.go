// Package extractor models the tile extractor hardware unit (Sec. 4): the
// Aggregate step that scans micro-tile footprint metadata to choose macro
// tile shapes, the Metadata-build step that re-emits T-[uc]+ segment and
// coordinate arrays for the chosen macro tile, and the Distribute step that
// streams the tile to the next level. The three steps pipeline with each
// other and with task compute (Sec. 4.2.3), which is why the paper measures
// < 1% end-to-end overhead versus an ideal zero-cycle extractor (Sec. 6.5).
package extractor

import "drt/internal/obs"

// Width is the P-word vector width of the Aggregate unit's reads into the
// compressed representation (the evaluation uses P = 32 with a P-to-1
// parallel adder).
const Width = 32

// Kind selects between the modeled parallel extractor and the idealized
// zero-cycle extractor of the Sec. 6.5 overhead study.
type Kind int

const (
	// ParallelExtractor is the P-wide implementation of Sec. 4.2.
	ParallelExtractor Kind = iota
	// IdealExtractor performs DRT in zero cycles.
	IdealExtractor
)

// String returns the extractor kind's name.
func (k Kind) String() string {
	if k == IdealExtractor {
		return "ideal"
	}
	return "parallel"
}

// Cost is the per-task cycle breakdown of the extraction pipeline.
type Cost struct {
	Aggregate float64 // occupancy scan: ScanTiles metadata words / Width
	MDBuild   float64 // metadata re-emission: one word/cycle over tile coords
	// Distribute is accounted by the accelerator's DRAM/NoC model — the
	// tile's data movement dominates and is charged there, not here.
}

// Total returns the serial extraction cycles for one task. Aggregate and
// MD-build for tile i overlap Distribute for tile i-1 via the buffers'
// second port, so only the non-hidden portion reaches the runtime.
func (c Cost) Total() float64 { return c.Aggregate + c.MDBuild }

// Record publishes the per-task extraction breakdown into the recorder's
// histograms (the Sec. 6.5 overhead study reads these distributions). rec
// may be nil; the call is allocation-free on the no-op path.
func (c Cost) Record(rec obs.Recorder) {
	if rec == nil {
		return
	}
	rec.Observe("extract.aggregate_cycles", c.Aggregate)
	rec.Observe("extract.mdbuild_cycles", c.MDBuild)
	rec.Count("extract.tasks", 1)
}

// CostScalars models the extraction cycles of one DRT task from the
// probe statistics the core algorithm recorded: scanTiles metadata words
// scanned by the Aggregate unit, probes growth probes, and rebuiltTiles
// stored micro tiles across the task's rebuilt macro tiles. The engine's
// per-task replay prices every task through it.
func CostScalars(kind Kind, scanTiles int64, probes int, rebuiltTiles int64) Cost {
	if kind == IdealExtractor {
		return Cost{}
	}
	agg := float64(scanTiles) / Width
	// Each growth probe additionally reads the segment-array words that
	// bound the new slab; charge one vector read per probe.
	agg += float64(probes)
	// MD build re-emits coordinate/size/pointer words for every micro
	// tile of the rebuilt macro tiles, one word per cycle, three words per
	// tile (Fig. 5's coordinate, size and pointer arrays).
	md := float64(3 * rebuiltTiles)
	return Cost{Aggregate: agg, MDBuild: md}
}
