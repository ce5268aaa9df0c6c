package tensor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := FromCOO(randomCOO(rng, 30, 20, 80))
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Fatal("MatrixMarket round trip changed the matrix")
	}
}

// The MatrixMarket inputs of the tests below; FuzzReadMatrixMarket seeds
// its corpus with all of them.
const (
	mmSymmetric = `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 2
2 1 5.0
3 3 7.0
`
	mmSkewSymmetric = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 4.0\n"
	mmPattern       = "%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 1\n2 3\n"
)

// mmErrorCases are inputs ReadMatrixMarket must reject with an error.
var mmErrorCases = []string{
	"",
	"%%MatrixMarket matrix array real general\n2 2 0\n",
	"%%MatrixMarket matrix coordinate complex general\n2 2 0\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n", // truncated
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n",
	"not a header\n",
	// Rows past int32 (FromCOO used to panic sizing the row pointers).
	"%%MatrixMarket matrix coordinate real general\n4000000000000000000 1 0\n",
	// Non-square symmetric (the mirrored entry used to panic in Append).
	"%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n",
	// Negative entry count (used to yield an empty matrix).
	"%%MatrixMarket matrix coordinate real general\n2 2 -5\n",
}

func TestMatrixMarketSymmetric(t *testing.T) {
	m, err := ReadMatrixMarket(strings.NewReader(mmSymmetric))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 5 || m.At(0, 1) != 5 {
		t.Fatalf("symmetric expansion failed: %g %g", m.At(1, 0), m.At(0, 1))
	}
	if m.At(2, 2) != 7 || m.NNZ() != 3 {
		t.Fatalf("diagonal handling wrong: nnz=%d", m.NNZ())
	}
}

func TestMatrixMarketSkewSymmetric(t *testing.T) {
	m, err := ReadMatrixMarket(strings.NewReader(mmSkewSymmetric))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 4 || m.At(0, 1) != -4 {
		t.Fatalf("skew expansion failed: %g %g", m.At(1, 0), m.At(0, 1))
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	m, err := ReadMatrixMarket(strings.NewReader(mmPattern))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(1, 2) != 1 {
		t.Fatal("pattern values must default to 1")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	for i, src := range mmErrorCases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestReadFROSTT(t *testing.T) {
	src := `# comment
1 1 1 2.5
3 2 4 1.0
1 1 1 0.5
`
	x, err := ReadFROSTT(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if x.I != 3 || x.J != 2 || x.K != 4 {
		t.Fatalf("inferred shape %dx%dx%d", x.I, x.J, x.K)
	}
	if x.NNZ() != 2 { // duplicate (1,1,1) summed
		t.Fatalf("nnz = %d, want 2", x.NNZ())
	}
	if x.Vals[0] != 3.0 {
		t.Fatalf("duplicate sum = %g, want 3", x.Vals[0])
	}
}

func TestReadFROSTTErrors(t *testing.T) {
	for i, src := range []string{
		"1 1 2.5\n",     // too few fields
		"1 1 1 1 2.5\n", // 4-tensor
		"0 1 1 2.5\n",   // 0-based
		"a b c d\n",     // garbage
	} {
		if _, err := ReadFROSTT(strings.NewReader(src)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// FuzzReadMatrixMarket checks that ReadMatrixMarket never panics on any
// input, and that whatever it accepts is a well-formed CSR that
// WriteMatrixMarket writes out and ReadMatrixMarket reads back unchanged.
// Inputs declaring more than 1<<16 rows or columns are skipped: the
// reader accepts any int32 shape and allocates row pointers to match, and
// allocation size is not the property under test.
func FuzzReadMatrixMarket(f *testing.F) {
	for _, src := range append([]string{mmSymmetric, mmSkewSymmetric, mmPattern}, mmErrorCases...) {
		f.Add([]byte(src))
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, FromCOO(randomCOO(rand.New(rand.NewSource(1)), 30, 20, 80))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, src []byte) {
		if rows, cols, ok := declaredShape(src); ok && (rows > 1<<16 || cols > 1<<16) {
			t.Skip("declared shape too large")
		}
		m, err := ReadMatrixMarket(bytes.NewReader(src))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted a malformed CSR: %v", err)
		}
		var out bytes.Buffer
		if err := WriteMatrixMarket(&out, m); err != nil {
			t.Fatal(err)
		}
		back, err := ReadMatrixMarket(&out)
		if err != nil {
			t.Fatalf("rereading the written matrix: %v", err)
		}
		if !sameStored(m, back) {
			t.Fatal("WriteMatrixMarket/ReadMatrixMarket round trip changed the matrix")
		}
	})
}

// declaredShape returns the row and column counts a MatrixMarket input's
// size line declares (the first non-comment line after the header).
func declaredShape(src []byte) (rows, cols int, ok bool) {
	lines := strings.Split(string(src), "\n")
	for _, line := range lines[min(1, len(lines)):] {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		_, err := fmt.Sscan(line, &rows, &cols)
		return rows, cols, err == nil
	}
	return 0, 0, false
}

// sameStored is Equal with NaN values matching each other, since a
// written NaN reads back as a NaN.
func sameStored(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.Ptr, b.Ptr) || !slices.Equal(a.Idx, b.Idx) {
		return false
	}
	return slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	})
}
