package core

import (
	"testing"

	"drt/internal/gen"
	"drt/internal/tiling"
)

func TestMatrixViewTransposed(t *testing.T) {
	m := gen.Uniform(16, 24, 60, 1)
	g := tiling.NewSummaryGrid(m, 4, 4, tiling.TUC, tiling.Auto)
	v := MatrixView{G: g}
	vt := MatrixView{G: g, Transposed: true}
	// A (rows, cols) query on the direct view equals the (cols, rows)
	// query on the transposed view.
	r := []Range{{0, 2}, {1, 4}}
	rT := []Range{{1, 4}, {0, 2}}
	if v.NNZ(r) != vt.NNZ(rT) || v.Footprint(r) != vt.Footprint(rT) || v.Tiles(r) != vt.Tiles(rT) {
		t.Fatal("transposed view disagrees with axis-swapped query")
	}
}

func TestDenseViewExactArithmetic(t *testing.T) {
	v := DenseView{Rows: 100, Cols: 50, TileH: 8, TileW: 8, ElemBytes: 8}
	// Full region: 100×50 coordinates × 8 bytes.
	full := []Range{{0, 13}, {0, 7}} // 13×8=104 clamps to 100; 7×8=56 clamps to 50
	if got := v.Footprint(full); got != 100*50*8 {
		t.Fatalf("full footprint %d, want %d", got, 100*50*8)
	}
	if got := v.NNZ(full); got != 100*50 {
		t.Fatalf("full nnz %d", got)
	}
	// Interior region: exact tile multiples.
	in := []Range{{1, 3}, {2, 4}}
	if got := v.Footprint(in); got != 16*16*8 {
		t.Fatalf("interior footprint %d, want %d", got, 16*16*8)
	}
	if got := v.Tiles(in); got != 4 {
		t.Fatalf("interior tiles %d, want 4", got)
	}
	// A dense region is never empty.
	if v.NNZ(in) == 0 {
		t.Fatal("dense region reported empty")
	}
	// Degenerate range.
	if v.Footprint([]Range{{3, 3}, {0, 1}}) != 0 {
		t.Fatal("empty range has footprint")
	}
}

func TestEnumeratorExhaustion(t *testing.T) {
	a := gen.Uniform(16, 16, 40, 2)
	g := tiling.NewSummaryGrid(a, 4, 4, tiling.TUC, tiling.Auto)
	k := &Kernel{
		DimNames:   []string{"I", "J", "K"},
		Contracted: []bool{false, false, true},
		Extent:     []int{g.GR, g.GC, g.GC},
		Operands: []Operand{
			{Name: "A", Dims: []int{0, 2}, View: MatrixView{G: g}, Capacity: 1 << 20},
			{Name: "B", Dims: []int{2, 1}, View: MatrixView{G: g}, Capacity: 1 << 20},
		},
	}
	e, err := NewEnumerator(k, &Config{LoopOrder: []int{1, 2, 0}, Strategy: GreedyContractedFirst})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Tasks(); err != nil {
		t.Fatal(err)
	}
	// After exhaustion, Next keeps returning ok=false without error.
	for i := 0; i < 3; i++ {
		if _, ok, err := e.Next(); ok || err != nil {
			t.Fatalf("exhausted enumerator returned ok=%v err=%v", ok, err)
		}
	}
}

func TestEmptyWindowYieldsNoTasks(t *testing.T) {
	a := gen.Uniform(16, 16, 40, 3)
	g := tiling.NewSummaryGrid(a, 4, 4, tiling.TUC, tiling.Auto)
	k := &Kernel{
		DimNames:   []string{"I", "J", "K"},
		Contracted: []bool{false, false, true},
		Extent:     []int{g.GR, g.GC, g.GC},
		Operands: []Operand{
			{Name: "A", Dims: []int{0, 2}, View: MatrixView{G: g}, Capacity: 100},
			{Name: "B", Dims: []int{2, 1}, View: MatrixView{G: g}, Capacity: 100},
		},
	}
	e, err := NewEnumerator(k, &Config{
		LoopOrder: []int{1, 2, 0},
		Strategy:  GreedyContractedFirst,
		Window:    []Range{{2, 2}, {0, g.GC}, {0, g.GC}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := e.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Fatalf("empty window produced %d tasks", len(tasks))
	}
}
