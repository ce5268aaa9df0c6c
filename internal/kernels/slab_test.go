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

// slabPlan lists the slabs the PE level prices in the outer window
// (iW, kW) at micro tile mt, in its order: ascending K steps, each cutting
// iW into ascending I ranges, with about one slab in four skipped, as for
// an empty A sub-tile. With disorder set it then repeats some slabs and
// retakes some in descending K order, which only Count's binary-search
// fallback prices right; those come after index ordered.
func slabPlan(rng *rand.Rand, iW, kW Range, mt int, disorder bool) (plan [][2]Range, ordered int) {
	for _, kR := range randPartition(rng, kW, mt) {
		for _, iR := range randPartition(rng, iW, mt) {
			if rng.Intn(4) != 0 {
				plan = append(plan, [2]Range{iR, kR})
			}
		}
	}
	ordered = len(plan)
	if disorder && ordered > 0 {
		for x := ordered - 1; x >= 0; x -= 1 + rng.Intn(4) {
			plan = append(plan, plan[x])
		}
		plan = append(plan, plan[len(plan)-1])
	}
	return plan, ordered
}

// checkSlab prices the slab (iR, kR) of s's window with Count and compares
// every sub-range of the J partition, and the whole window jW, with
// RestrictedGustavson on the same ranges.
func checkSlab(t *testing.T, a, b *tensor.CSR, iR, kR, jW Range, parts []Range, s *SlabCounts, spa *SPA) {
	t.Helper()
	s.Count(iR, kR)
	for _, jR := range append(parts, jW) {
		want := RestrictedGustavson(a, b, iR, kR, jR, spa)
		if got := s.MACCs(jR); got != want.MACCs {
			t.Fatalf("i%v k%v j%v (J window %v, mt %d): MACCs = %d, RestrictedGustavson %d", iR, kR, jR, jW, s.mt, got, want.MACCs)
		}
		if s.ScannedA != want.ScannedA {
			t.Fatalf("i%v k%v j%v (J window %v, mt %d): ScannedA = %d, RestrictedGustavson %d", iR, kR, jR, jW, s.mt, s.ScannedA, want.ScannedA)
		}
	}
}

// TestCountSlabMatchesRestricted is Window and Count's property test. Over
// random banded and R-MAT operands it drives outer windows the way the PE
// level does: each window's slabs in ascending K steps with ascending I
// ranges, some skipped, against a random J partition of the window; half
// the windows then repeat slabs and retake them in descending K order.
// Consecutive windows keep (kW, jW), as an I sweep's outer tasks do, or
// change kW, jW or both, so a B memo kept past a key change would show.
// Every sub-range's MACCs and every slab's scanned-A must equal
// RestrictedGustavson's. Matrix orders are never multiples of the micro
// tile, and about one new J window in three runs to the grid's end, so
// the partial last micro tile is covered. One SlabCounts serves every trial,
// so stale scratch from a wider or narrower window would show too.
func TestCountSlabMatchesRestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s SlabCounts
	partialLast, refound := 0, 0
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
		newJ := func() Range {
			jW := randTileRange(rng, tiles, mt)
			if rng.Intn(3) == 0 {
				jW.Hi = tiles * mt
			}
			return jW
		}
		var kW, jW Range
		for win := 0; win < 8; win++ {
			switch c := rng.Intn(4); {
			case win == 0 || c == 0:
				kW, jW = randTileRange(rng, tiles, mt), newJ()
				if rng.Intn(3) == 0 {
					kW = Range{Lo: 0, Hi: tiles * mt} // full K, as fig14's outer tasks
				}
			case c == 1:
				jW = newJ()
			case c == 2:
				kW = randTileRange(rng, tiles, mt)
			}
			if jW.Hi > n {
				partialLast++
			}
			iW := randTileRange(rng, tiles, mt)
			s.Window(a, b, iW, kW, jW, mt)
			parts := randPartition(rng, jW, mt)
			plan, ordered := slabPlan(rng, iW, kW, mt, win%2 == 1)
			for x, slab := range plan {
				checkSlab(t, a, b, slab[0], slab[1], jW, parts, &s, spa)
				if x >= ordered && s.ScannedA > 0 {
					refound++
				}
			}
		}
	}
	if partialLast == 0 {
		t.Fatal("no window covered a partial last micro tile")
	}
	if refound == 0 {
		t.Fatal("no repeated or descending slab had elements to re-find")
	}
}

// TestCountSlabAllocFree pins the PE level's allocation-free pricing:
// once the scratch has grown, Window (keeping or rebuilding the B memo),
// Count and MACCs allocate nothing.
func TestCountSlabAllocFree(t *testing.T) {
	a := gen.RMAT(256, 2048, 0.57, 0.19, 0.19, 41)
	b := gen.RMAT(256, 2048, 0.57, 0.19, 0.19, 42)
	var s SlabCounts
	var sink int64
	iW, kW := Range{Lo: 0, Hi: 128}, Range{Lo: 32, Hi: 224}
	price := func(jW Range) {
		s.Window(a, b, iW, kW, jW, 16)
		for k := kW.Lo; k < kW.Hi; k += 64 {
			for i := iW.Lo; i < iW.Hi; i += 64 {
				s.Count(Range{Lo: i, Hi: i + 64}, Range{Lo: k, Hi: k + 64})
				sink += s.MACCs(Range{Lo: jW.Lo + 16, Hi: jW.Lo + 96}) + s.ScannedA
			}
		}
	}
	jW1, jW2 := Range{Lo: 0, Hi: 256}, Range{Lo: 64, Hi: 192}
	price(jW1) // warm the scratch
	price(jW2)
	allocs := testing.AllocsPerRun(20, func() {
		price(jW1)
		price(jW1) // the next outer task of an I sweep: the memo is kept
		price(jW2)
	})
	if allocs != 0 {
		t.Fatalf("Window and Count allocate %.1f objects per window sequence with warm scratch, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("fixture slabs have no work")
	}
}
