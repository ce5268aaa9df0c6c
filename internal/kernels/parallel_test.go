package kernels

import (
	"math/rand"
	"sort"
	"testing"

	"drt/internal/gen"
)

// TestGramParallelBitIdentical pins GramParallel to Gram exactly, including
// the symmetric-MACC counting convention.
func TestGramParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 6; trial++ {
		x := gen.Tensor3(rng.Intn(24)+2, rng.Intn(24)+2, rng.Intn(24)+2, rng.Intn(600)+1, rng.Int63())
		want, wantSt := Gram(x)
		for _, workers := range []int{2, 5} {
			got, gotSt := GramParallel(x, workers)
			if !got.Equal(want) {
				t.Fatalf("trial %d: %d workers: Gram result diverges", trial, workers)
			}
			if gotSt != wantSt {
				t.Fatalf("trial %d: %d workers: stats %+v, sequential %+v", trial, workers, gotSt, wantSt)
			}
		}
	}
}

// TestSPASortedCols drives the sorted-run merge against a sort.Ints oracle
// across random insertion orders and repeated epochs (the scratch is reused
// without reallocation, so later epochs exercise dirty buffers).
func TestSPASortedCols(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	spa := NewSPA(500)
	for epoch := 0; epoch < 50; epoch++ {
		spa.Reset()
		n := rng.Intn(120)
		want := make([]int, 0, n)
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			j := rng.Intn(500)
			spa.Add(j, rng.Float64())
			if !seen[j] {
				seen[j] = true
				want = append(want, j)
			}
		}
		sort.Ints(want)
		got := spa.SortedCols()
		if len(got) != len(want) {
			t.Fatalf("epoch %d: %d cols, want %d", epoch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("epoch %d: cols[%d] = %d, want %d", epoch, i, got[i], want[i])
			}
		}
		// SortedCols must be idempotent within an epoch.
		again := spa.SortedCols()
		for i := range want {
			if again[i] != want[i] {
				t.Fatalf("epoch %d: second SortedCols diverges at %d", epoch, i)
			}
		}
	}
}

// TestRestrictedAllocs enforces the allocation-free engine hot path: after
// one warm-up call has grown the SPA scratch, RestrictedGustavson must not
// allocate at all.
func TestRestrictedAllocs(t *testing.T) {
	a := gen.Uniform(64, 64, 900, 31)
	b := gen.Uniform(64, 64, 900, 32)
	spa := NewSPA(b.Cols)
	iR, kR, jR := Range{0, a.Rows}, Range{0, a.Cols}, Range{0, b.Cols}
	RestrictedGustavson(a, b, iR, kR, jR, spa) // warm the scratch
	allocs := testing.AllocsPerRun(20, func() {
		RestrictedGustavson(a, b, iR, kR, jR, spa)
	})
	if allocs != 0 {
		t.Fatalf("RestrictedGustavson allocates %.1f objects per call with warm scratch, want 0", allocs)
	}
}

// TestRestrictedWorkAllocs does the same for the union-free pass, with
// the scratch warmed by RestrictedGustavson and the two passes taking
// turns on it, as in the engine.
func TestRestrictedWorkAllocs(t *testing.T) {
	a := gen.Uniform(64, 64, 900, 31)
	b := gen.Uniform(64, 64, 900, 32)
	spa := NewSPA(b.Cols)
	iR, kR, jR := Range{0, a.Rows}, Range{0, a.Cols}, Range{8, 40}
	RestrictedGustavson(a, b, iR, kR, jR, spa) // warm the scratch
	allocs := testing.AllocsPerRun(20, func() {
		RestrictedWork(a, b, iR, kR, jR, spa)
		RestrictedGustavson(a, b, iR, Range{16, 48}, jR, spa)
	})
	if allocs != 0 {
		t.Fatalf("RestrictedWork allocates %.1f objects per call with warm scratch, want 0", allocs)
	}
}

// TestDrainAllocFree does the same for the full SPA drain used by the
// library API's row emission.
func TestDrainAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	spa := NewSPA(256)
	fill := func() {
		spa.Reset()
		for i := 0; i < 100; i++ {
			spa.Add(rng.Intn(256), rng.Float64())
		}
	}
	fill()
	spa.Drain() // warm
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		spa.Drain()
	})
	if allocs != 0 {
		t.Fatalf("SPA fill+drain allocates %.1f objects per call with warm scratch, want 0", allocs)
	}
}
