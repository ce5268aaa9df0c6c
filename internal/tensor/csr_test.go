package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCOO builds a reproducible random COO matrix with about nnz entries
// (duplicates allowed to exercise the summing path).
func randomCOO(rng *rand.Rand, rows, cols, nnz int) *COO {
	m := NewCOO(rows, cols)
	for t := 0; t < nnz; t++ {
		m.Append(rng.Intn(rows), rng.Intn(cols), float64(rng.Intn(9)+1))
	}
	return m
}

func TestFromCOOSmall(t *testing.T) {
	// The matrix of Fig. 2: 4x4 with points (0,1)=7 (0,2)=1 (2,0)=6
	// (2,2)=12 (2,3)=3 (3,1)=10.
	m := NewCOO(4, 4)
	m.Append(2, 2, 12)
	m.Append(0, 1, 7)
	m.Append(3, 1, 10)
	m.Append(2, 0, 6)
	m.Append(0, 2, 1)
	m.Append(2, 3, 3)
	c := FromCOO(m)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	wantPtr := []int{0, 2, 2, 5, 6}
	for i, p := range wantPtr {
		if c.Ptr[i] != p {
			t.Fatalf("Ptr[%d] = %d, want %d (full %v)", i, c.Ptr[i], p, c.Ptr)
		}
	}
	wantIdx := []int{1, 2, 0, 2, 3, 1}
	wantVal := []float64{7, 1, 6, 12, 3, 10}
	for p := range wantIdx {
		if c.Idx[p] != wantIdx[p] || c.Val[p] != wantVal[p] {
			t.Fatalf("position %d = (%d,%g), want (%d,%g)", p, c.Idx[p], c.Val[p], wantIdx[p], wantVal[p])
		}
	}
}

func TestFromCOODuplicatesSum(t *testing.T) {
	m := NewCOO(2, 2)
	m.Append(1, 1, 3)
	m.Append(1, 1, 4)
	m.Append(0, 0, 1)
	m.Append(0, 0, -1) // sums to zero: must not be stored
	c := FromCOO(m)
	if c.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", c.NNZ())
	}
	if got := c.At(1, 1); got != 7 {
		t.Fatalf("At(1,1) = %g, want 7", got)
	}
	if got := c.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %g, want 0", got)
	}
}

func TestEmptyMatrix(t *testing.T) {
	c := FromCOO(NewCOO(5, 7))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 0 || c.Density() != 0 {
		t.Fatalf("empty matrix has nnz=%d density=%g", c.NNZ(), c.Density())
	}
	tr := c.Transpose()
	if tr.Rows != 7 || tr.Cols != 5 || tr.NNZ() != 0 {
		t.Fatalf("empty transpose wrong: %+v", tr)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rows, cols := rng.Intn(30)+1, rng.Intn(30)+1
		c := FromCOO(randomCOO(rng, rows, cols, rng.Intn(60)))
		tt := c.Transpose().Transpose()
		if !c.Equal(tt) {
			t.Fatalf("trial %d: transpose not an involution", trial)
		}
		if err := c.Transpose().Validate(); err != nil {
			t.Fatalf("trial %d: invalid transpose: %v", trial, err)
		}
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := FromCOO(randomCOO(rng, 13, 7, 40))
	d := c.ToDense()
	tr := c.Transpose()
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			if d.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCSCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		c := FromCOO(randomCOO(rng, rng.Intn(20)+1, rng.Intn(20)+1, rng.Intn(50)))
		back := c.ToCSC().ToCSR()
		if !c.Equal(back) {
			t.Fatalf("trial %d: CSR→CSC→CSR changed the matrix", trial)
		}
	}
}

func TestCOORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		c := FromCOO(randomCOO(rng, rng.Intn(20)+1, rng.Intn(20)+1, rng.Intn(50)))
		back := FromCOO(c.ToCOO())
		if !c.Equal(back) {
			t.Fatalf("trial %d: CSR→COO→CSR changed the matrix", trial)
		}
	}
}

// TestRoundTripQuick property-tests the round trips with testing/quick
// generating arbitrary shapes and occupancies.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, rows, cols, nnz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := int(rows%40)+1, int(cols%40)+1
		m := FromCOO(randomCOO(rng, r, c, int(nnz)))
		if err := m.Validate(); err != nil {
			return false
		}
		return m.Equal(FromCOO(m.ToCOO())) && m.Equal(m.Transpose().Transpose()) && m.Equal(m.ToCSC().ToCSR())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRowRange(t *testing.T) {
	m := NewCOO(3, 100)
	for _, j := range []int{3, 10, 11, 40, 90} {
		m.Append(0, j, 1)
	}
	m.Append(2, 7, 1) // row 1 stays empty
	c := FromCOO(m)
	cases := []struct{ row, c0, c1, lo, hi int }{
		{0, 0, 100, 0, 5}, {0, 0, 3, 0, 0}, {0, 3, 4, 0, 1}, {0, 10, 12, 1, 3},
		{0, 41, 90, 4, 4}, {0, 41, 91, 4, 5}, {0, 91, 100, 5, 5},
		{0, -5, 140, 0, 5}, {0, -5, 11, 0, 2}, {0, 40, 140, 3, 5},
		{1, 0, 100, 5, 5}, {1, -5, 140, 5, 5}, {1, 10, 20, 5, 5},
		{2, -1, 101, 5, 6}, {2, 8, 100, 6, 6},
	}
	for _, tc := range cases {
		if lo, hi := c.RowRange(tc.row, tc.c0, tc.c1); lo != tc.lo || hi != tc.hi {
			t.Errorf("row %d: RowRange[%d,%d) = [%d,%d), want [%d,%d)", tc.row, tc.c0, tc.c1, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestColRange(t *testing.T) {
	m := NewCOO(100, 1)
	for _, i := range []int{5, 6, 50, 99} {
		m.Append(i, 0, 1)
	}
	csc := FromCOO(m).ToCSC()
	lo, hi := csc.ColRange(0, 6, 99)
	if hi-lo != 2 {
		t.Fatalf("ColRange[6,99) = %d entries, want 2", hi-lo)
	}
}

func TestFootprint(t *testing.T) {
	m := NewCOO(4, 4)
	m.Append(0, 0, 1)
	m.Append(1, 1, 1)
	c := FromCOO(m)
	// segment array (5 words) + 2 coords + 2 values.
	want := int64(5*MetaBytes + 2*(MetaBytes+ValueBytes))
	if c.Footprint() != want {
		t.Fatalf("Footprint = %d, want %d", c.Footprint(), want)
	}
	if c.ToCSC().Footprint() != want {
		t.Fatalf("CSC footprint = %d, want %d", c.ToCSC().Footprint(), want)
	}
}

func TestRowNNZVariation(t *testing.T) {
	// Perfectly balanced rows → variation 0.
	m := NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		m.Append(i, i, 1)
	}
	if v := FromCOO(m).RowNNZVariation(); v != 0 {
		t.Fatalf("balanced variation = %g, want 0", v)
	}
	// All mass in one row → variation sqrt(3) for 4 rows.
	m2 := NewCOO(4, 4)
	for j := 0; j < 4; j++ {
		m2.Append(0, j, 1)
	}
	v := FromCOO(m2).RowNNZVariation()
	if v < 1.7 || v > 1.8 {
		t.Fatalf("skewed variation = %g, want ~1.732", v)
	}
}

func TestDenseMatMulOracle(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(3, 2)
	// a = [1 2 0; 0 1 1], b = [1 0; 0 1; 2 3]
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 1, 1)
	a.Set(1, 2, 1)
	b.Set(0, 0, 1)
	b.Set(1, 1, 1)
	b.Set(2, 0, 2)
	b.Set(2, 1, 3)
	z := a.MatMul(b)
	want := [][]float64{{1, 2}, {2, 4}}
	for i := range want {
		for j := range want[i] {
			if z.At(i, j) != want[i][j] {
				t.Fatalf("z(%d,%d) = %g, want %g", i, j, z.At(i, j), want[i][j])
			}
		}
	}
}

func TestDenseCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := FromCOO(randomCOO(rng, 9, 11, 30))
	if !c.Equal(c.ToDense().ToCSR()) {
		t.Fatal("CSR→Dense→CSR changed the matrix")
	}
}
