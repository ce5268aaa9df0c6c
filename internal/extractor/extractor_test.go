package extractor

import "testing"

func TestIdealExtractorIsFree(t *testing.T) {
	if c := CostScalars(IdealExtractor, 1000, 50, 30); c.Total() != 0 {
		t.Fatalf("ideal extractor cost %g, want 0", c.Total())
	}
}

func TestParallelExtractorScales(t *testing.T) {
	c := CostScalars(ParallelExtractor, 320, 4, 16)
	// Aggregate: 320/32 + 4 probes = 14; MD build: 3 × 16 tiles = 48.
	if c.Aggregate != 14 {
		t.Fatalf("aggregate = %g, want 14", c.Aggregate)
	}
	if c.MDBuild != 48 {
		t.Fatalf("md build = %g, want 48", c.MDBuild)
	}
	// Only rebuilt tiles incur MD build: one 8-tile operand rebuilt.
	if c := CostScalars(ParallelExtractor, 320, 4, 8); c.MDBuild != 24 {
		t.Fatalf("md build with one rebuild = %g, want 24", c.MDBuild)
	}
}
