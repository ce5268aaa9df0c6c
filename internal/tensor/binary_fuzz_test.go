package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// drtbHeader encodes a .drtb header declaring the given shape and flags.
func drtbHeader(rows, cols, nnz int64, flags uint32) []byte {
	hdr := make([]byte, binaryHeaderSize)
	copy(hdr, binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:], binaryVersion)
	binary.LittleEndian.PutUint32(hdr[8:], flags)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(rows))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(cols))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(nnz))
	return hdr
}

// TestBinaryHugeShapeIsError pins that header lengths are checked against
// the image's size before anything is sized from them: a 40-byte image
// declaring 2^36 rows (which the header check allows) must not ask for a
// 512 GiB Ptr slice, nor an nnz near MaxInt64/16 after a valid Ptr panic
// in makeslice. Both are plain truncation errors on every path.
func TestBinaryHugeShapeIsError(t *testing.T) {
	hugeNNZ := append(drtbHeader(1, 1, math.MaxInt64/16, 0), make([]byte, 16)...)
	dir := t.TempDir()
	for name, img := range map[string][]byte{
		"rows":     drtbHeader(1<<36, 1, 0, 0),
		"nnz":      hugeNNZ,
		"nnz-tail": append(hugeNNZ, make([]byte, 3<<20)...),
	} {
		decodeEach(img, func(via string, _ *Operand, err error) {
			if err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Errorf("%s: %s decode = %v, want a truncation error", name, via, err)
			}
		})
		path := filepath.Join(dir, name+".drtb")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		op, err := OpenBinary(path)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			op.Close()
			t.Errorf("%s: OpenBinary = %v, want a truncation error", name, err)
		}
	}
}

// TestBinaryCorruptStructureIsError pins that every decoder validates the
// matrix it returns: correctly sized files whose column index is out of
// range or whose segment array decreases used to load, so the operand
// cache served them to the engine.
func TestBinaryCorruptStructureIsError(t *testing.T) {
	m := &CSR{Rows: 2, Cols: 4, Ptr: []int{0, 1, 2}, Idx: []int{1, 3}, Val: []float64{1, 2}}
	cases := map[string]*CSR{
		"column out of range": {Rows: 2, Cols: 4, Ptr: []int{0, 1, 2}, Idx: []int{1, 4}, Val: []float64{1, 2}},
		"ptr decreases":       {Rows: 3, Cols: 4, Ptr: []int{0, 2, 1, 2}, Idx: []int{1, 3}, Val: []float64{1, 2}},
		// Overshooting NNZ in the middle once made Validate itself index
		// past Idx before it saw the decrease.
		"ptr overshoots": {Rows: 2, Cols: 4, Ptr: []int{0, 5, 2}, Idx: []int{1, 3}, Val: []float64{1, 2}},
		"unsorted row":   {Rows: 1, Cols: 4, Ptr: []int{0, 2}, Idx: []int{3, 1}, Val: []float64{1, 2}},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, bad := range cases {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted the matrix", name)
		}
		var buf bytes.Buffer
		if err := bad.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		decodeEach(buf.Bytes(), func(via string, _ *Operand, err error) {
			if err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Errorf("%s: %s decode = %v, want a corrupt-matrix error", name, via, err)
			}
		})
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".drtb")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if op, err := OpenBinary(path); err == nil {
			op.Close()
			t.Errorf("%s: OpenBinary accepted the file", name)
		}
	}
}

// ix32Image encodes m in the retired 32-bit .drtb layout: flag bit 0 set,
// Ptr and Idx as int32, zero padding to the next multiple of 8, then Val.
func ix32Image(m *CSR) []byte {
	b := drtbHeader(int64(m.Rows), int64(m.Cols), int64(m.NNZ()), 1)
	for _, v := range append(append([]int(nil), m.Ptr...), m.Idx...) {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	if len(b)%8 != 0 {
		b = append(b, 0, 0, 0, 0)
	}
	for _, v := range m.Val {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestBinaryRejectsIx32Flag pins that an image written with the retired
// 32-bit index flag is an error on every path, like any unknown flag: the
// operand cache then treats such an entry as a miss and rebuilds it. Both
// a complete 32-bit image and a 64-bit image with only the flag set are
// refused.
func TestBinaryRejectsIx32Flag(t *testing.T) {
	m := randCSR(t, rand.New(rand.NewSource(8)), 12, 9, 40)
	var wide bytes.Buffer
	if err := m.WriteBinary(&wide); err != nil {
		t.Fatal(err)
	}
	flagged := bytes.Clone(wide.Bytes())
	binary.LittleEndian.PutUint32(flagged[8:], 1)
	dir := t.TempDir()
	for name, img := range map[string][]byte{"ix32": ix32Image(m), "flag-only": flagged} {
		decodeEach(img, func(via string, _ *Operand, err error) {
			if err == nil || !strings.Contains(err.Error(), "unknown .drtb flags") {
				t.Errorf("%s: %s decode = %v, want an unknown-flags error", name, via, err)
			}
		})
		path := filepath.Join(dir, name+".drtb")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if op, err := OpenBinary(path); err == nil || !strings.Contains(err.Error(), "unknown .drtb flags") {
			op.Close()
			t.Errorf("%s: OpenBinary = %v, want an unknown-flags error", name, err)
		}
	}
}

// FuzzReadBinary feeds arbitrary bytes to the one .drtb decoder on each
// path a file image takes: the heap path, the aliased path over an
// 8-aligned copy where the host allows it, and, through a file,
// OpenBinary (mapped where the host allows it). None may panic, and every
// accepted operand must be a valid matrix that re-encodes byte-identically
// through WriteBinary.
func FuzzReadBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []*CSR{NewCSR(0, 3), NewCSR(4, 2), randCSR(f, rng, 9, 7, 20)} {
		var buf bytes.Buffer
		if err := m.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(ix32Image(m))
	}
	f.Add(drtbHeader(1<<36, 1, 0, 0))
	f.Add(append(drtbHeader(1, 1, math.MaxInt64/16, 0), make([]byte, 16)...))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, src []byte) {
		decodeEach(src, func(via string, op *Operand, err error) {
			if err == nil {
				checkAccepted(t, via+" decode", op)
			}
		})
		path := filepath.Join(dir, "in.drtb")
		if err := os.WriteFile(path, src, 0o644); err != nil {
			t.Fatal(err)
		}
		if op, err := OpenBinary(path); err == nil {
			checkAccepted(t, "OpenBinary", op)
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// checkAccepted checks one decoded operand: valid, and its encoding reads
// back to an operand that encodes to the same bytes.
func checkAccepted(t *testing.T, via string, op *Operand) {
	t.Helper()
	encode := func(op *Operand) []byte {
		var buf bytes.Buffer
		if err := op.WriteBinary(&buf); err != nil {
			t.Fatalf("%s: WriteBinary: %v", via, err)
		}
		return buf.Bytes()
	}
	if err := op.Validate(); err != nil {
		t.Fatalf("%s accepted a malformed matrix: %v", via, err)
	}
	enc := encode(op)
	back, err := decodeBinary(enc, nil)
	if err != nil {
		t.Fatalf("%s: decoding the written operand: %v", via, err)
	}
	if !bytes.Equal(encode(back), enc) {
		t.Fatalf("%s: WriteBinary/decodeBinary round trip changed the operand", via)
	}
}
