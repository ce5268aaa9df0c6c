package core

import (
	"fmt"
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

// TestSkipInnerMatchesWalk pins Enumerator.SkipInner on K→I→J walks of
// the sweep-log fixtures, over the full window and re-windowed across an
// outer J→K→I walk's tasks: skipping the rest of every other J sweep
// right after its first task yields exactly the full walk's tasks minus
// those sweeps' remaining tasks, every field equal.
func TestSkipInnerMatchesWalk(t *testing.T) {
	skipped := 0
	for kn, k := range replayKernels() {
		outer, err := NewEnumerator(k, &Config{LoopOrder: []int{1, 2, 0}, Strategy: GreedyContractedFirst})
		if err != nil {
			t.Fatal(err)
		}
		outerTasks, err := outer.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		windows := [][]Range{fullWindow(k)}
		for i := range outerTasks {
			windows = append(windows, outerTasks[i].Ranges)
		}
		for _, sn := range []string{"greedy", "alternating", "static"} {
			cfg := replayConfigs()["kij-"+sn]
			inner := cfg.LoopOrder[len(cfg.LoopOrder)-1]
			// walk drains a fresh enumerator over every window, calling
			// SkipInner after the first task of each sweep skip names.
			// It returns every task, its sweep's index and whether it
			// opens the sweep.
			walk := func(skip func(sweep int) bool) (tasks []Task, sweeps []int, opens []bool) {
				e, err := NewEnumerator(k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sweep := -1
				for _, w := range windows {
					if err := e.Reset(w); err != nil {
						t.Fatal(err)
					}
					for {
						task, ok, err := e.Next()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
						open := task.Ranges[inner].Lo == w[inner].Lo
						if open {
							sweep++
						}
						tasks, sweeps, opens = append(tasks, task.Clone()), append(sweeps, sweep), append(opens, open)
						if open && skip(sweep) {
							e.SkipInner()
						}
					}
				}
				return tasks, sweeps, opens
			}
			full, sweeps, opens := walk(func(int) bool { return false })
			for parity := 0; parity < 2; parity++ {
				skip := func(sweep int) bool { return sweep%2 == parity }
				var want []Task
				for i, task := range full {
					if opens[i] || !skip(sweeps[i]) {
						want = append(want, task)
					}
				}
				got, _, _ := walk(skip)
				requireSameTasks(t, fmt.Sprintf("%s/%s parity %d", kn, sn, parity), got, want)
				skipped += len(full) - len(got)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no sweep had a task to skip: the test checks nothing")
	}
}
