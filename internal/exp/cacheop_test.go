package exp

import (
	"reflect"
	"testing"

	"drt/internal/gen"
	"drt/internal/obs"
	"drt/internal/tiling"
	"drt/internal/workloads"
)

// TestOperandCacheIdentity pins the operand-cache contract end to end: a
// workload built from a cold cache write, one from a warm (typically
// mmap-backed) cache read, and one bypassing the cache entirely are
// indistinguishable — same reference output grid, MACCs and tile
// summaries — and the warm run actually hits the cache.
func TestOperandCacheIdentity(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("DRT_OPERAND_CACHE", dir)

	// An entry big enough at this scale to engage the cache.
	const scale = 4
	var entry workloads.Entry
	best := 0
	for _, e := range workloads.Table3 {
		if nnz := e.Spec(scale).NNZ; nnz > best {
			entry, best = e, nnz
		}
	}
	if best < gen.CacheMinNNZ {
		t.Fatalf("no Table3 entry reaches CacheMinNNZ at scale %d", scale)
	}

	opt := Options{Scale: scale, MicroTile: 8, Parallel: 2}
	build := func(noCache bool) (*obs.Collector, *workloadsResult) {
		rec := obs.NewCollector()
		o := opt
		o.NoOperandCache = noCache
		o.Rec = rec
		c := NewContext(o)
		w, err := c.Square(entry)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		fa, fb := w.InputFootprint()
		return rec, &workloadsResult{
			gz: w.GZ, maccs: w.MACCs,
			fa: fa, fb: fb, fz: w.OutputFootprint(),
		}
	}

	_, fresh := build(true)
	coldRec, cold := build(false)
	warmRec, warm := build(false)

	if coldRec.Counter("operand_cache.misses") != 1 {
		t.Fatalf("cold run misses = %d, want 1", coldRec.Counter("operand_cache.misses"))
	}
	if warmRec.Counter("operand_cache.hits") != 1 {
		t.Fatalf("warm run hits = %d, want 1", warmRec.Counter("operand_cache.hits"))
	}
	for name, got := range map[string]*workloadsResult{"cold": cold, "warm": warm} {
		if !reflect.DeepEqual(got.gz, fresh.gz) {
			t.Fatalf("%s: reference output grid differs from cache-bypassing build", name)
		}
		if got.maccs != fresh.maccs ||
			got.fa != fresh.fa || got.fb != fresh.fb || got.fz != fresh.fz {
			t.Fatalf("%s: workload stats differ: %+v vs %+v", name, got, fresh)
		}
	}
}

type workloadsResult struct {
	gz         *tiling.Grid
	maccs      int64
	fa, fb, fz int64
}
