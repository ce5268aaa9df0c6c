package tensor

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// randCSR builds a random matrix with the requested shape and target
// occupancy, duplicate points collapsing as usual.
func randCSR(t testing.TB, rng *rand.Rand, rows, cols, nnz int) *CSR {
	t.Helper()
	m := NewCOO(rows, cols)
	for k := 0; k < nnz; k++ {
		m.Append(rng.Intn(rows), rng.Intn(cols), rng.Float64()+0.5)
	}
	c := FromCOO(m)
	if err := c.Validate(); err != nil {
		t.Fatalf("random matrix invalid: %v", err)
	}
	return c
}

// aligned8 copies b into 8-aligned memory, as mmap's pages are.
func aligned8(b []byte) []byte {
	words := make([]uint64, (len(b)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(b))
	copy(out, b)
	return out
}

// decodeEach runs the one .drtb decoder over a file image on each path an
// image takes: the heap path and, where the host allows aliasing, the
// aliased path over an 8-aligned copy.
func decodeEach(data []byte, check func(via string, op *Operand, err error)) {
	op, err := decodeBinary(data, nil)
	check("heap", op, err)
	if binaryAliasOK {
		op, err := decodeBinary(aligned8(data), func() error { return nil })
		check("aliased", op, err)
	}
}

// roundTrip writes m, decodes the image on every path and checks
// equality; the file-backed variant additionally exercises the mmap
// OpenBinary path.
func roundTrip(t *testing.T, m *CSR) {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteBinary(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if want := BinarySize(m.Rows, m.NNZ()); int64(buf.Len()) != want {
		t.Fatalf("image is %d bytes, BinarySize says %d", buf.Len(), want)
	}
	decodeEach(buf.Bytes(), func(via string, op *Operand, err error) {
		if err != nil {
			t.Fatalf("%s decode: %v", via, err)
		}
		if !op.Equal(m) {
			t.Fatalf("%s: round trip mismatch", via)
		}
	})
	path := filepath.Join(t.TempDir(), "m.drtb")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	op, err := OpenBinary(path)
	if err != nil {
		t.Fatalf("OpenBinary: %v", err)
	}
	if !op.Equal(m) {
		t.Fatal("mmap: round trip mismatch")
	}
	if err := op.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string]*CSR{
		"zero-nnz":      NewCSR(5, 9),
		"zero-rows":     NewCSR(0, 4),
		"single":        FromCOO(&COO{Rows: 3, Cols: 3, I: []int{1}, J: []int{2}, V: []float64{4.5}}),
		"small-random":  randCSR(t, rng, 40, 60, 300),
		"empty-rows":    randCSR(t, rng, 200, 10, 30), // most rows empty
		"dense-ish":     randCSR(t, rng, 30, 30, 600),
		"single-column": randCSR(t, rng, 100, 1, 50),
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) { roundTrip(t, m) })
	}
}

// TestBinaryRandomProperty fuzzes shapes and occupancies.
func TestBinaryRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for it := 0; it < 25; it++ {
		rows := 1 + rng.Intn(120)
		cols := 1 + rng.Intn(120)
		nnz := rng.Intn(rows * cols / 2)
		roundTrip(t, randCSR(t, rng, rows, cols, nnz))
	}
}

// TestBinaryWideBoundary round-trips coordinates past the int32 range.
func TestBinaryWideBoundary(t *testing.T) {
	cols := int(math.MaxInt32) + 10
	m := &CSR{
		Rows: 2, Cols: cols,
		Ptr: []int{0, 2, 3},
		Idx: []int{7, cols - 1, cols - 3},
		Val: []float64{1, 2, 3},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, m)
}

func TestBinaryTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randCSR(t, rng, 20, 20, 80)
	var buf bytes.Buffer
	if err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) / 2, binaryHeaderSize + 3, 10, 0} {
		decodeEach(full[:cut], func(via string, _ *Operand, err error) {
			if err == nil {
				t.Fatalf("%s decode accepted an image truncated to %d of %d bytes", via, cut, len(full))
			}
		})
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.drtb")
	if err := os.WriteFile(path, full[:len(full)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBinary(path); err == nil {
		t.Fatal("OpenBinary accepted a truncated file")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	decodeEach([]byte("not a drtb file at all........................."), func(via string, _ *Operand, err error) {
		if err == nil {
			t.Fatalf("%s decode accepted garbage", via)
		}
	})
}

// TestTransposeIntoAllocFree pins the pooled-scratch promise: repeated
// transposition into a reused destination performs no steady-state
// allocations.
func TestTransposeIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randCSR(t, rng, 300, 200, 4000)
	dst := &CSR{}
	m.TransposeInto(dst) // warm destination and pool
	allocs := testing.AllocsPerRun(20, func() {
		m.TransposeInto(dst)
	})
	if allocs != 0 {
		t.Fatalf("TransposeInto allocates %.1f objects/run in steady state, want 0", allocs)
	}
	if !m.Transpose().Equal(dst) {
		t.Fatal("TransposeInto result differs from Transpose")
	}
}
