package kernels

import (
	"math/rand"
	"sort"
	"testing"

	"drt/internal/gen"
	"drt/internal/tensor"
)

// randTileRange draws a non-empty tile range [lo, hi) of [0, tiles),
// scaled to coordinates by the micro tile edge mt.
func randTileRange(rng *rand.Rand, tiles, mt int) Range {
	lo := rng.Intn(tiles)
	hi := lo + 1 + rng.Intn(tiles-lo)
	return Range{Lo: lo * mt, Hi: hi * mt}
}

// randPartition cuts the tile-aligned window w into consecutive
// tile-aligned sub-ranges whose union is w.
func randPartition(rng *rand.Rand, w Range, mt int) []Range {
	tiles := (w.Hi - w.Lo) / mt
	cuts := []int{0, tiles}
	for c := 1; c < tiles; c++ {
		if rng.Intn(3) == 0 {
			cuts = append(cuts, c)
		}
	}
	sort.Ints(cuts)
	parts := make([]Range, 0, len(cuts)-1)
	for p := 1; p < len(cuts); p++ {
		parts = append(parts, Range{Lo: w.Lo + cuts[p-1]*mt, Hi: w.Lo + cuts[p]*mt})
	}
	return parts
}

// checkSlab prices one slab's J sweep with CountSlab and compares every
// sub-range of the partition, and the whole window, with
// RestrictedGustavson on the same ranges.
func checkSlab(t *testing.T, a, b *tensor.CSR, iR, kR, jW Range, parts []Range, mt int, s *SlabCounts, spa *SPA) {
	t.Helper()
	CountSlab(a, b, iR, kR, jW, mt, s)
	for _, jR := range append(parts, jW) {
		want := RestrictedGustavson(a, b, iR, kR, jR, spa)
		if got := s.MACCs(jR); got != want.MACCs {
			t.Fatalf("i%v k%v j%v (window %v, mt %d): MACCs = %d, RestrictedGustavson %d", iR, kR, jR, jW, mt, got, want.MACCs)
		}
		if s.ScannedA != want.ScannedA {
			t.Fatalf("i%v k%v j%v (window %v, mt %d): ScannedA = %d, RestrictedGustavson %d", iR, kR, jR, jW, mt, s.ScannedA, want.ScannedA)
		}
	}
}

// TestCountSlabMatchesRestricted is CountSlab's property test: over random
// banded and R-MAT operands, random tile-aligned A slabs and random J
// partitions of a random outer window, every sub-range's MACCs and the
// slab's scanned-A equal RestrictedGustavson's. Matrix orders are never
// multiples of the micro tile, and every third window runs to the grid's
// end, so the partial last micro tile is covered. One SlabCounts serves
// every slab, so stale scratch from a wider or narrower slab would show.
func TestCountSlabMatchesRestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s SlabCounts
	partialLast := 0
	for trial := 0; trial < 80; trial++ {
		mt := []int{2, 3, 5, 8}[rng.Intn(4)]
		n := 30 + rng.Intn(120)
		if n%mt == 0 {
			n++
		}
		var a, b *tensor.CSR
		if trial%2 == 0 {
			a = gen.Banded(n, 2+rng.Intn(8), 1+rng.Intn(4), 0.3+0.6*rng.Float64(), rng.Int63())
			b = gen.Banded(n, 2+rng.Intn(8), 1+rng.Intn(4), 0.3+0.6*rng.Float64(), rng.Int63())
		} else {
			a = gen.RMAT(n, 6*n, 0.57, 0.19, 0.19, rng.Int63())
			b = gen.RMAT(n, 6*n, 0.57, 0.19, 0.19, rng.Int63())
		}
		spa := NewSPA(b.Cols)
		tiles := (n + mt - 1) / mt
		for slab := 0; slab < 6; slab++ {
			iR, kR, jW := randTileRange(rng, tiles, mt), randTileRange(rng, tiles, mt), randTileRange(rng, tiles, mt)
			if slab%3 == 0 {
				jW.Hi = tiles * mt
			}
			if jW.Hi > n {
				partialLast++
			}
			parts := randPartition(rng, jW, mt)
			checkSlab(t, a, b, iR, kR, jW, parts, mt, &s, spa)
		}
	}
	if partialLast == 0 {
		t.Fatal("no window covered a partial last micro tile")
	}
}

// TestCountSlabAllocFree pins the PE level's allocation-free pricing:
// once a call has grown the scratch, CountSlab and MACCs allocate nothing.
func TestCountSlabAllocFree(t *testing.T) {
	a := gen.RMAT(256, 2048, 0.57, 0.19, 0.19, 41)
	b := gen.RMAT(256, 2048, 0.57, 0.19, 0.19, 42)
	var s SlabCounts
	iR, kR, jW := Range{Lo: 0, Hi: 64}, Range{Lo: 32, Hi: 160}, Range{Lo: 0, Hi: 256}
	CountSlab(a, b, iR, kR, jW, 16, &s) // warm the scratch
	var sink int64
	allocs := testing.AllocsPerRun(20, func() {
		CountSlab(a, b, iR, kR, jW, 16, &s)
		sink += s.MACCs(Range{Lo: 16, Hi: 96}) + s.ScannedA
	})
	if allocs != 0 {
		t.Fatalf("CountSlab allocates %.1f objects per call with warm scratch, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("fixture slab has no work")
	}
}
