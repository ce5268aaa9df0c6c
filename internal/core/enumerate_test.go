package core

import (
	"reflect"
	"testing"

	"drt/internal/gen"
)

// skewedJKI is a skewed R-MAT product walked J→K→I under greedy growth:
// enough tasks, rebuilds and repeated box queries to exercise Reset and
// the box-query cache.
func skewedJKI() (*Kernel, *Config) {
	a := gen.RMAT(96, 1100, 0.57, 0.19, 0.19, 11)
	b := gen.RMAT(96, 1100, 0.57, 0.19, 0.19, 12)
	return spmspmKernel(a, b, 2, 1500, 1500),
		&Config{LoopOrder: []int{1, 2, 0}, Strategy: GreedyContractedFirst}
}

// fullWindow is the kernel's whole iteration space.
func fullWindow(k *Kernel) []Range {
	full := make([]Range, k.NDims())
	for d := range full {
		full[d] = Range{0, k.Extent[d]}
	}
	return full
}

// TestResetReplaysIdentically pins Enumerator.Reset: a reset enumerator
// must reproduce its first traversal exactly, and a window reset must
// match a freshly constructed windowed enumerator (the hierarchical
// PE-level reuses one enumerator across thousands of outer windows this
// way).
func TestResetReplaysIdentically(t *testing.T) {
	k, cfg := skewedJKI()
	e, err := NewEnumerator(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(fullWindow(k)); err != nil {
		t.Fatal(err)
	}
	again, err := e.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("reset traversal diverged from the first")
	}
	// Window reset ≡ fresh windowed enumerator, for each outer task's box.
	for i, outer := range first {
		if i >= 5 {
			break
		}
		if err := e.Reset(outer.Ranges); err != nil {
			t.Fatal(err)
		}
		got, err := e.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		wcfg := *cfg
		wcfg.Window = outer.Ranges
		fresh, err := NewEnumerator(k, &wcfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		// The reused enumerator's warm box cache must not change results,
		// only probe-count bookkeeping is shared — and that, too, is task
		// state, so it must agree exactly.
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: reset traversal diverged from fresh enumerator", i)
		}
	}
}

// TestBoxCacheCounts sanity-checks the cache accounting: a traversal
// performs lookups, hits plus misses equals lookups, and a second
// identical traversal through the same builder hits more.
func TestBoxCacheCounts(t *testing.T) {
	k, cfg := skewedJKI()
	e, err := NewEnumerator(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Tasks(); err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.BoxMisses == 0 {
		t.Fatal("traversal recorded no cache lookups")
	}
	if st.BoxHits == 0 {
		t.Fatal("grow/emit sequence should re-touch boxes; no hits recorded")
	}
	if err := e.Reset(fullWindow(k)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Tasks(); err != nil {
		t.Fatal(err)
	}
	st2 := e.CacheStats()
	if st2.BoxHits <= st.BoxHits {
		t.Fatalf("warm replay hits %d not above cold %d", st2.BoxHits, st.BoxHits)
	}
}
