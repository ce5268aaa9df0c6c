package core

import (
	"math/rand"
	"testing"

	"drt/internal/gen"
	"drt/internal/kernels"
	"drt/internal/tensor"
	"drt/internal/tiling"
)

// fig3Matrices builds the running example of Fig. 3: A (I×K) with column
// k=0 holding rows {0,2,3}; B (K×J) with row k=0 holding columns {0,3} and
// row k=2 holding {0,1}.
func fig3Matrices() (a, b *tensor.CSR) {
	ac := tensor.NewCOO(4, 4)
	ac.Append(0, 0, 0.5)
	ac.Append(2, 0, 0.2)
	ac.Append(3, 0, 0.7)
	bc := tensor.NewCOO(4, 4)
	bc.Append(0, 0, 0.3)
	bc.Append(0, 3, 1.1)
	bc.Append(2, 0, 0.1)
	bc.Append(2, 1, 0.8)
	return tensor.FromCOO(ac), tensor.FromCOO(bc)
}

// spmspmKernel assembles the I,J,K kernel for A·B at the given micro tile
// edge and per-operand byte capacities.
func spmspmKernel(a, b *tensor.CSR, tile int, capA, capB int64) *Kernel {
	ga := tiling.NewSummaryGrid(a, tile, tile, tiling.TUC, tiling.Auto)
	gb := tiling.NewSummaryGrid(b, tile, tile, tiling.TUC, tiling.Auto)
	return &Kernel{
		DimNames:   []string{"I", "J", "K"},
		Contracted: []bool{false, false, true},
		Extent:     []int{ga.GR, gb.GC, ga.GC},
		Operands: []Operand{
			{Name: "A", Dims: []int{0, 2}, View: MatrixView{G: ga}, Capacity: capA},
			{Name: "B", Dims: []int{2, 1}, View: MatrixView{G: gb}, Capacity: capB},
		},
	}
}

// unitFootprint is the modeled cost of one stored 1×1 micro tile; the
// Fig. 3 example's "2 data values" buffer is 2×unitFootprint bytes.
var unitFootprint = tiling.MicroFootprint(1, 1)

func TestFig3Trace(t *testing.T) {
	a, b := fig3Matrices()
	k := spmspmKernel(a, b, 1, 2*unitFootprint, 2*unitFootprint)
	cfg := &Config{
		LoopOrder:   []int{1, 2, 0}, // J → K → I, B stationary
		Strategy:    GreedyContractedFirst,
		InitialSize: []int{2, 2, 1}, // (i, j, k) as in Fig. 3b
	}
	e, err := NewEnumerator(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := e.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("got %d tasks, want 3: %+v", len(tasks), tasks)
	}
	// Task 1: tile_sizes settle at (3,4,2) per the register trace of
	// Fig. 3c — I∈[0,3), J∈[0,4), K∈[0,2).
	t1 := tasks[0]
	want1 := []Range{{0, 3}, {0, 4}, {0, 2}}
	for d, w := range want1 {
		if t1.Ranges[d] != w {
			t.Fatalf("task 1 dim %s range %+v, want %+v", k.DimNames[d], t1.Ranges[d], w)
		}
	}
	if t1.OpNNZ[0] != 2 || t1.OpNNZ[1] != 2 {
		t.Fatalf("task 1 occupancies A=%d B=%d, want 2/2", t1.OpNNZ[0], t1.OpNNZ[1])
	}
	if t1.Empty {
		t.Fatal("task 1 must not be empty")
	}
	// Task 2: advance I, sizes (1,4,2); only A is rebuilt.
	t2 := tasks[1]
	want2 := []Range{{3, 4}, {0, 4}, {0, 2}}
	for d, w := range want2 {
		if t2.Ranges[d] != w {
			t.Fatalf("task 2 dim %s range %+v, want %+v", k.DimNames[d], t2.Ranges[d], w)
		}
	}
	if !t2.Rebuilt[0] || t2.Rebuilt[1] {
		t.Fatalf("task 2 rebuilt = %v, want A only", t2.Rebuilt)
	}
	if t2.OpNNZ[0] != 1 {
		t.Fatalf("task 2 A occupancy %d, want 1", t2.OpNNZ[0])
	}
	// Task 3: K advances to [2,4); A has no non-zeros there → the task is
	// skipped ("tasks involving empty tiles are skipped", Fig. 3a).
	t3 := tasks[2]
	if t3.Ranges[2] != (Range{2, 4}) {
		t.Fatalf("task 3 K range %+v, want [2,4)", t3.Ranges[2])
	}
	if !t3.Empty {
		t.Fatal("task 3 should be empty (A has no K≥2 columns)")
	}
	if !t3.Rebuilt[1] {
		t.Fatal("task 3 must rebuild the stationary B tile")
	}
}

func TestFig3DRTReadsAOnce(t *testing.T) {
	// The point of the Fig. 3 comparison: DRT completes after reading A
	// once, while the 2-value S-U-C baseline re-reads part of A. Count
	// A-traffic as the footprint of A tiles loaded by non-empty tasks.
	a, b := fig3Matrices()
	loadedA := func(strategy Strategy, initial []int) int64 {
		k := spmspmKernel(a, b, 1, 2*unitFootprint, 2*unitFootprint)
		cfg := &Config{LoopOrder: []int{1, 2, 0}, Strategy: strategy, InitialSize: initial}
		e, err := NewEnumerator(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := e.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		var traffic int64
		for _, task := range tasks {
			if task.Empty || !task.Rebuilt[0] {
				continue
			}
			traffic += task.OpFootprint[0]
		}
		return traffic
	}
	drt := loadedA(GreedyContractedFirst, []int{2, 2, 1})
	suc := loadedA(Static, []int{2, 2, 1}) // fixed 2×1 / 1×2 tiles
	if drt != int64(a.NNZ())*unitFootprint {
		t.Fatalf("DRT read %d bytes of A, want exactly one pass = %d", drt, int64(a.NNZ())*unitFootprint)
	}
	if suc <= drt {
		t.Fatalf("S-U-C A traffic %d should exceed DRT %d", suc, drt)
	}
}

// checkPartition verifies the fundamental exactness property: the tasks of
// any enumeration tile the iteration space exactly (no gaps, no overlap),
// measured by summing range-restricted MACCs against the full kernel.
func checkPartition(t *testing.T, a, b *tensor.CSR, tile int, cfg *Config, capA, capB int64) []Task {
	t.Helper()
	k := spmspmKernel(a, b, tile, capA, capB)
	e, err := NewEnumerator(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := e.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	spa := kernels.NewSPA(b.Cols)
	var sum int64
	for _, task := range tasks {
		iR := kernels.Range{Lo: task.Ranges[0].Lo * tile, Hi: task.Ranges[0].Hi * tile}
		jR := kernels.Range{Lo: task.Ranges[1].Lo * tile, Hi: task.Ranges[1].Hi * tile}
		kR := kernels.Range{Lo: task.Ranges[2].Lo * tile, Hi: task.Ranges[2].Hi * tile}
		r := kernels.RestrictedGustavson(a, b, iR, kR, jR, spa)
		if task.Empty && r.MACCs != 0 {
			t.Fatalf("task flagged empty performed %d MACCs", r.MACCs)
		}
		sum += r.MACCs
	}
	_, full := kernels.Gustavson(a, b)
	if sum != full.MACCs {
		t.Fatalf("task partition covers %d MACCs, full kernel has %d (%d tasks)", sum, full.MACCs, len(tasks))
	}
	return tasks
}

func TestPartitionAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	loopOrders := [][]int{{1, 2, 0}, {0, 1, 2}, {2, 0, 1}, {0, 2, 1}, {1, 0, 2}, {2, 1, 0}}
	for trial := 0; trial < 24; trial++ {
		n := rng.Intn(60) + 8
		var a, b *tensor.CSR
		if trial%2 == 0 {
			a = gen.RMAT(n, n*3, 0.57, 0.19, 0.19, rng.Int63())
			b = gen.RMAT(n, n*3, 0.57, 0.19, 0.19, rng.Int63())
		} else {
			a = gen.Banded(n, 5, 2, 0.6, rng.Int63())
			b = gen.Banded(n, 5, 2, 0.6, rng.Int63())
		}
		tile := rng.Intn(4) + 1
		capBytes := int64(rng.Intn(2000) + 200)
		cfg := &Config{
			LoopOrder: loopOrders[trial%len(loopOrders)],
			Strategy:  Strategy(trial % 3), // greedy, alternating, static
		}
		tasks := checkPartition(t, a, b, tile, cfg, capBytes, capBytes)
		// Tile footprints must respect partitions unless flagged.
		for _, task := range tasks {
			for oi, fp := range task.OpFootprint {
				if fp > capBytes && !task.Overflow {
					t.Fatalf("trial %d: operand %d footprint %d exceeds capacity %d without overflow flag", trial, oi, fp, capBytes)
				}
			}
		}
	}
}

func TestStationarityOrder(t *testing.T) {
	a, b := fig3Matrices()
	k := spmspmKernel(a, b, 1, 1000, 1000)
	// J→K→I: B (deepest dim K at position 1) before A (I at position 2).
	order := stationarityOrder(k, []int{1, 2, 0})
	if len(order) != 2 || k.Operands[order[0]].Name != "B" || k.Operands[order[1]].Name != "A" {
		t.Fatalf("J→K→I order = %v, want B then A", order)
	}
	// I→J→K: both end at K (position 2); stable order keeps A first.
	order = stationarityOrder(k, []int{0, 1, 2})
	if k.Operands[order[0]].Name != "A" {
		t.Fatalf("I→J→K order = %v, want stable A first", order)
	}
}

func TestLargeBufferSingleTask(t *testing.T) {
	// With partitions larger than the whole tensors, DRT must cover the
	// kernel in a single task spanning the full space.
	a := gen.RMAT(64, 400, 0.57, 0.19, 0.19, 7)
	b := gen.RMAT(64, 400, 0.57, 0.19, 0.19, 8)
	k := spmspmKernel(a, b, 4, 1<<30, 1<<30)
	e, err := NewEnumerator(k, &Config{LoopOrder: []int{1, 2, 0}, Strategy: GreedyContractedFirst})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := e.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 {
		t.Fatalf("got %d tasks, want 1", len(tasks))
	}
	for d, r := range tasks[0].Ranges {
		if r.Lo != 0 || r.Hi != k.Extent[d] {
			t.Fatalf("dim %d range %+v, want full extent %d", d, r, k.Extent[d])
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	a := tensor.FromCOO(tensor.NewCOO(16, 16))
	b := gen.Uniform(16, 16, 30, 1)
	k := spmspmKernel(a, b, 2, 500, 500)
	e, err := NewEnumerator(k, &Config{LoopOrder: []int{1, 2, 0}, Strategy: GreedyContractedFirst})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := e.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if !task.Empty {
			t.Fatal("every task over an empty A must be flagged empty")
		}
	}
	// An empty A should be swallowed in very few tasks: growth over
	// zero-footprint regions is free.
	if len(tasks) > 4 {
		t.Fatalf("empty input produced %d tasks", len(tasks))
	}
}

func TestHierarchicalWindow(t *testing.T) {
	// Re-tiling an outer task's window with smaller capacities must
	// exactly partition that window (the LLB→PE level of Sec. 4).
	a := gen.RMAT(96, 900, 0.57, 0.19, 0.19, 3)
	b := gen.RMAT(96, 900, 0.57, 0.19, 0.19, 4)
	tile := 2
	k := spmspmKernel(a, b, tile, 4000, 4000)
	outer, err := NewEnumerator(k, &Config{LoopOrder: []int{1, 2, 0}, Strategy: GreedyContractedFirst})
	if err != nil {
		t.Fatal(err)
	}
	outerTasks, err := outer.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	spa := kernels.NewSPA(b.Cols)
	var sum int64
	for _, ot := range outerTasks {
		inner, err := NewEnumerator(k, &Config{
			LoopOrder: []int{2, 0, 1}, // a different dataflow inside, as in Fig. 5
			Strategy:  GreedyContractedFirst,
			Window:    ot.Ranges,
		})
		if err != nil {
			t.Fatal(err)
		}
		innerTasks, err := inner.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range innerTasks {
			for d := range it.Ranges {
				if it.Ranges[d].Lo < ot.Ranges[d].Lo || it.Ranges[d].Hi > ot.Ranges[d].Hi {
					t.Fatalf("inner task range %+v escapes outer window %+v", it.Ranges[d], ot.Ranges[d])
				}
			}
			r := kernels.RestrictedGustavson(a, b,
				kernels.Range{Lo: it.Ranges[0].Lo * tile, Hi: it.Ranges[0].Hi * tile},
				kernels.Range{Lo: it.Ranges[2].Lo * tile, Hi: it.Ranges[2].Hi * tile},
				kernels.Range{Lo: it.Ranges[1].Lo * tile, Hi: it.Ranges[1].Hi * tile}, spa)
			sum += r.MACCs
		}
	}
	_, full := kernels.Gustavson(a, b)
	if sum != full.MACCs {
		t.Fatalf("hierarchical partition covers %d MACCs, want %d", sum, full.MACCs)
	}
}

func TestDRTBeatsStaticOnSkewedData(t *testing.T) {
	// The headline claim: on irregular sparsity DRT loads fewer bytes of
	// the non-stationary operand than the best uniform static tiling,
	// because high-occupancy regions no longer dictate a worst-case shape.
	a := gen.RMAT(256, 3000, 0.6, 0.18, 0.18, 5)
	b := gen.RMAT(256, 3000, 0.6, 0.18, 0.18, 6)
	capBytes := int64(6000)
	trafficFor := func(strategy Strategy) int64 {
		k := spmspmKernel(a, b, 2, capBytes, capBytes)
		e, err := NewEnumerator(k, &Config{LoopOrder: []int{1, 2, 0}, Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := e.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		var traffic int64
		for _, task := range tasks {
			if task.Empty {
				continue
			}
			for oi := range task.OpFootprint {
				if task.Rebuilt[oi] {
					traffic += task.OpFootprint[oi]
				}
			}
		}
		return traffic
	}
	drt := trafficFor(GreedyContractedFirst)
	static := trafficFor(Static)
	if drt >= static {
		t.Fatalf("DRT traffic %d not below static %d", drt, static)
	}
}

func TestAlternatingGrowsSquarish(t *testing.T) {
	// On a uniform matrix the alternating strategy should produce tiles
	// whose aspect ratio is closer to 1 than greedy-contracted-first,
	// which deliberately elongates the contracted dimension.
	a := gen.Uniform(128, 128, 2000, 9)
	b := gen.Uniform(128, 128, 2000, 10)
	aspect := func(s Strategy) float64 {
		k := spmspmKernel(a, b, 1, 3000, 3000)
		e, err := NewEnumerator(k, &Config{LoopOrder: []int{1, 2, 0}, Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := e.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		var ratio float64
		var n int
		for _, task := range tasks {
			if !task.Rebuilt[1] { // B rebuild tasks define the (K,J) shape
				continue
			}
			kLen, jLen := float64(task.Ranges[2].Len()), float64(task.Ranges[1].Len())
			if jLen == 0 || kLen == 0 {
				continue
			}
			r := kLen / jLen
			if r < 1 {
				r = 1 / r
			}
			ratio += r
			n++
		}
		return ratio / float64(n)
	}
	if alt, greedy := aspect(Alternating), aspect(GreedyContractedFirst); alt > greedy {
		t.Fatalf("alternating aspect %.2f should not exceed greedy %.2f", alt, greedy)
	}
}

func TestConfigValidation(t *testing.T) {
	a, b := fig3Matrices()
	k := spmspmKernel(a, b, 1, 100, 100)
	if _, err := NewEnumerator(k, &Config{LoopOrder: []int{0, 1}}); err == nil {
		t.Fatal("short loop order accepted")
	}
	if _, err := NewEnumerator(k, &Config{LoopOrder: []int{0, 1, 1}}); err == nil {
		t.Fatal("duplicate loop order accepted")
	}
	bad := *k
	bad.Operands = append([]Operand(nil), k.Operands...)
	bad.Operands[0].Capacity = 0
	if _, err := NewEnumerator(&bad, &Config{LoopOrder: []int{0, 1, 2}}); err == nil {
		t.Fatal("zero capacity accepted")
	}
}
