package par

import (
	"errors"
	"testing"

	"drt/internal/obs"
)

// TestMapWithReportsProgress: with a Progress attached, the cells and
// their summed weights register up front and every completed cell
// reports its worker and weight.
func TestMapWithReportsProgress(t *testing.T) {
	p := obs.NewProgress()
	weights := []int64{5, 10, 15, 20}
	got, err := MapWith(Options{Workers: 2, Weights: weights, Progress: p}, len(weights), func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
	s := p.Snapshot()
	if s.CellsDone != 4 || s.CellsTotal != 4 {
		t.Errorf("cells %d/%d, want 4/4", s.CellsDone, s.CellsTotal)
	}
	if s.WorkDone != 50 || s.WorkTotal != 50 {
		t.Errorf("work %d/%d, want 50/50", s.WorkDone, s.WorkTotal)
	}
	if s.ETASeconds != 0 {
		t.Errorf("eta at completion = %v, want 0", s.ETASeconds)
	}
	var cells int64
	for _, w := range s.Workers {
		cells += w.Cells
	}
	if cells != 4 {
		t.Errorf("worker cells sum = %d, want 4", cells)
	}
}

// TestMapWithNilProgress: weights without a tracker must behave exactly
// like Map.
func TestMapWithNilProgress(t *testing.T) {
	got, err := MapWith(Options{Workers: 4, Weights: []int64{1, 2, 3}}, 3, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("results = %v", got)
	}
}

// TestMapWithNilWeights: without weights the cells register with zero
// work, so the ETA falls back to the cell rate.
func TestMapWithNilWeights(t *testing.T) {
	p := obs.NewProgress()
	if _, err := MapWith(Options{Workers: 1, Progress: p}, 5, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if s.CellsDone != 5 || s.CellsTotal != 5 || s.WorkTotal != 0 {
		t.Errorf("snapshot = %+v, want 5/5 cells with no work units", s)
	}
}

// TestMapWithProgressErrorSemantics: the lowest-index error surfaces
// exactly as with Map, and failed cells never tick the done counters.
func TestMapWithProgressErrorSemantics(t *testing.T) {
	p := obs.NewProgress()
	boom := errors.New("boom")
	_, err := MapWith(Options{Workers: 2, Weights: []int64{1, 1, 1, 1}, Progress: p}, 4, func(i int) (int, error) {
		if i == 1 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	s := p.Snapshot()
	if s.CellsTotal != 4 {
		t.Errorf("cells total = %d, want 4 (registered up front)", s.CellsTotal)
	}
	if s.CellsDone >= 4 {
		t.Errorf("cells done = %d, want < 4 (the failed cell must not count)", s.CellsDone)
	}
}

// TestMapWithProgressSequential pins the workers==1 inline path:
// everything lands on worker slot 0.
func TestMapWithProgressSequential(t *testing.T) {
	p := obs.NewProgress()
	if _, err := MapWith(Options{Workers: 1, Weights: []int64{2, 3}, Progress: p}, 2, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if len(s.Workers) != 1 || s.Workers[0].Worker != 0 || s.Workers[0].Cells != 2 {
		t.Errorf("workers = %+v, want all cells on worker 0", s.Workers)
	}
}
