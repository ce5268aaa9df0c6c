package extractor

import (
	"testing"

	"drt/internal/core"
)

func task(scan int64, probes int, tiles []int64) *core.Task {
	return &core.Task{ScanTiles: scan, Probes: probes, OpTiles: tiles, Rebuilt: make([]bool, len(tiles))}
}

func TestIdealExtractorIsFree(t *testing.T) {
	tk := task(1000, 50, []int64{10, 20})
	if c := TaskCost(IdealExtractor, tk); c.Total() != 0 {
		t.Fatalf("ideal extractor cost %g, want 0", c.Total())
	}
}

func TestParallelExtractorScales(t *testing.T) {
	tk := task(320, 4, []int64{8, 8})
	tk.Rebuilt = []bool{true, true}
	c := TaskCost(ParallelExtractor, tk)
	// Aggregate: 320/32 + 4 probes = 14; MD build: 3 × 16 tiles = 48.
	if c.Aggregate != 14 {
		t.Fatalf("aggregate = %g, want 14", c.Aggregate)
	}
	if c.MDBuild != 48 {
		t.Fatalf("md build = %g, want 48", c.MDBuild)
	}
	// Non-rebuilt operands incur no MD build.
	tk.Rebuilt = []bool{true, false}
	if c := TaskCost(ParallelExtractor, tk); c.MDBuild != 24 {
		t.Fatalf("md build with one rebuild = %g, want 24", c.MDBuild)
	}
}
