package core

import (
	"math/rand"
	"testing"

	"drt/internal/gen"
	"drt/internal/tiling"
)

// TestTasksTileSpaceGeometrically checks the partition property directly
// in coordinate space: task boxes are pairwise disjoint and their volumes
// sum to the full iteration space — independent of the MACC-based checks,
// this also covers empty regions.
func TestTasksTileSpaceGeometrically(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		n := rng.Intn(80) + 16
		a := gen.RMAT(n, n*3, 0.57, 0.19, 0.19, rng.Int63())
		b := gen.RMAT(n, n*3, 0.57, 0.19, 0.19, rng.Int63())
		ga := tiling.NewSummaryGrid(a, 2, 2, tiling.TUC, tiling.Auto)
		gb := tiling.NewSummaryGrid(b, 2, 2, tiling.TUC, tiling.Auto)
		k := &Kernel{
			DimNames:   []string{"I", "J", "K"},
			Contracted: []bool{false, false, true},
			Extent:     []int{ga.GR, gb.GC, ga.GC},
			Operands: []Operand{
				{Name: "A", Dims: []int{0, 2}, View: MatrixView{G: ga}, Capacity: int64(rng.Intn(3000) + 300)},
				{Name: "B", Dims: []int{2, 1}, View: MatrixView{G: gb}, Capacity: int64(rng.Intn(3000) + 300)},
			},
		}
		orders := [][]int{{1, 2, 0}, {0, 1, 2}, {2, 0, 1}}
		e, err := NewEnumerator(k, &Config{
			LoopOrder: orders[trial%len(orders)],
			Strategy:  Strategy(trial % 3),
		})
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := e.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		var volume int64
		for ti, task := range tasks {
			v := int64(1)
			for _, r := range task.Ranges {
				if r.Len() <= 0 {
					t.Fatalf("trial %d: degenerate range %+v", trial, r)
				}
				v *= int64(r.Len())
			}
			volume += v
			// Pairwise disjointness: boxes overlap iff they overlap in
			// every dimension.
			for tj := 0; tj < ti; tj++ {
				overlap := true
				for d := range task.Ranges {
					a, b := task.Ranges[d], tasks[tj].Ranges[d]
					if a.Hi <= b.Lo || b.Hi <= a.Lo {
						overlap = false
						break
					}
				}
				if overlap {
					t.Fatalf("trial %d: tasks %d and %d overlap: %v vs %v",
						trial, ti, tj, task.Ranges, tasks[tj].Ranges)
				}
			}
		}
		want := int64(ga.GR) * int64(gb.GC) * int64(ga.GC)
		if volume != want {
			t.Fatalf("trial %d: task volumes sum to %d, space is %d", trial, volume, want)
		}
	}
}

// TestWindowedTasksStayInWindow checks the same geometric property for a
// hierarchical (windowed) enumeration.
func TestWindowedTasksStayInWindow(t *testing.T) {
	a := gen.Uniform(64, 64, 700, 9)
	g := tiling.NewSummaryGrid(a, 2, 2, tiling.TUC, tiling.Auto)
	k := &Kernel{
		DimNames:   []string{"I", "J", "K"},
		Contracted: []bool{false, false, true},
		Extent:     []int{g.GR, g.GC, g.GC},
		Operands: []Operand{
			{Name: "A", Dims: []int{0, 2}, View: MatrixView{G: g}, Capacity: 800},
			{Name: "B", Dims: []int{2, 1}, View: MatrixView{G: g}, Capacity: 800},
		},
	}
	window := []Range{{3, 17}, {5, 20}, {0, 9}}
	e, err := NewEnumerator(k, &Config{
		LoopOrder: []int{1, 2, 0},
		Strategy:  GreedyContractedFirst,
		Window:    window,
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := e.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	var volume int64
	for _, task := range tasks {
		v := int64(1)
		for d, r := range task.Ranges {
			if r.Lo < window[d].Lo || r.Hi > window[d].Hi {
				t.Fatalf("task range %+v escapes window %+v", r, window[d])
			}
			v *= int64(r.Len())
		}
		volume += v
	}
	want := int64(window[0].Len()) * int64(window[1].Len()) * int64(window[2].Len())
	if volume != want {
		t.Fatalf("windowed volumes sum to %d, window is %d", volume, want)
	}
}
