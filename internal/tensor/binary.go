package tensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"unsafe"

	"drt/internal/diskcache"
)

// Binary operand format (.drtb): a versioned little-endian dump of one
// compressed sparse matrix, designed so a memory-mapped file IS the
// in-memory representation — OpenBinary on a little-endian 64-bit host
// builds a matrix whose Ptr/Idx/Val slices alias the mapping directly,
// with no copy and the value pages streamed on demand. OpenBinary hands
// the complete file image to the one decoder (decodeBinary), which checks
// the matrix structure (CSR.Validate) before returning it, one sequential
// pass over Ptr and Idx, so a damaged file is an error, never a matrix
// whose indices run out of range.
//
// Layout (all little-endian):
//
//	offset  size  field
//	     0     4  magic "DRTB"
//	     4     4  uint32 version (currently 1)
//	     8     4  uint32 flags (none defined; must be 0)
//	    12     4  uint32 reserved (0)
//	    16     8  int64 rows
//	    24     8  int64 cols
//	    32     8  int64 nnz
//	    40     …  Ptr  (rows+1 int64)
//	     …     …  Idx  (nnz int64)
//	     …     …  Val  (nnz float64)
//
// Every element is 8 bytes, so the 40-byte header keeps every array
// 8-aligned within the file, which the mmap fast path requires. Any flag
// bit is an error: bit 0 once marked 32-bit indices, so a file written
// with it reads as damaged, and the operand cache rebuilds it.
const (
	binaryMagic   = "DRTB"
	binaryVersion = 1

	binaryHeaderSize = 40
)

// binaryAliasOK reports whether this host stores int and float64 as the
// format's little-endian 8-byte words: on it arrays are written as their
// backing bytes, and a mapped image serves as the matrix arrays in place.
var binaryAliasOK = strconv.IntSize == 64 && func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// BinarySize returns the exact .drtb file size for a matrix of the given
// shape. A shape the header check admits can imply more than int64 holds;
// its size saturates at math.MaxInt64, more than any file holds.
func BinarySize(rows, nnz int) int64 {
	n := binaryHeaderSize + (uint64(rows)+1+2*uint64(nnz))*8
	return int64(min(n, math.MaxInt64))
}

// WriteBinary writes the matrix in .drtb form.
func (c *CSR) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [binaryHeaderSize]byte
	copy(hdr[0:4], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(c.Rows))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(c.Cols))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(c.NNZ()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeArray(bw, c.Ptr); err != nil {
		return err
	}
	if err := writeArray(bw, c.Idx); err != nil {
		return err
	}
	if err := writeArray(bw, c.Val); err != nil {
		return err
	}
	return bw.Flush()
}

// writeArray writes s as little-endian 8-byte words: its backing bytes in
// one call on a host that passes binaryAliasOK, element by element
// otherwise.
func writeArray[E int | float64](w io.Writer, s []E) error {
	if len(s) == 0 {
		return nil
	}
	if binaryAliasOK {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8))
		return err
	}
	var buf [8]byte
	for _, v := range s {
		switch v := any(v).(type) {
		case int:
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		case float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		}
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// Operand is a matrix loaded from the binary format. When the operand is
// mmap-backed its slices alias the mapping: keep it (and any matrices or
// workloads built over its slices) alive for as long as they are used,
// and Close only when done.
type Operand struct {
	*CSR
	munmap func() error
}

// Mapped reports whether the operand's arrays alias a file mapping.
func (o *Operand) Mapped() bool { return o != nil && o.munmap != nil }

// Close releases the file mapping, if any. The operand's matrix must not
// be used afterwards.
func (o *Operand) Close() error {
	if o == nil || o.munmap == nil {
		return nil
	}
	m := o.munmap
	o.munmap = nil
	return m()
}

// binaryHeader is the decoded fixed-size prefix of a .drtb file.
type binaryHeader struct {
	rows, cols, nnz int
}

func decodeBinaryHeader(hdr []byte) (binaryHeader, error) {
	var h binaryHeader
	if string(hdr[0:4]) != binaryMagic {
		return h, fmt.Errorf("tensor: not a .drtb file (magic %q)", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != binaryVersion {
		return h, fmt.Errorf("tensor: unsupported .drtb version %d (want %d)", v, binaryVersion)
	}
	if flags := binary.LittleEndian.Uint32(hdr[8:12]); flags != 0 {
		return h, fmt.Errorf("tensor: unknown .drtb flags %#x", flags)
	}
	rows := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	cols := int64(binary.LittleEndian.Uint64(hdr[24:32]))
	nnz := int64(binary.LittleEndian.Uint64(hdr[32:40]))
	if rows < 0 || cols < 0 || nnz < 0 || rows > math.MaxInt32*64 || nnz > math.MaxInt64/16 {
		return h, fmt.Errorf("tensor: implausible .drtb shape %dx%d nnz=%d", rows, cols, nnz)
	}
	h.rows, h.cols, h.nnz = int(rows), int(cols), int(nnz)
	return h, nil
}

// decodeBinary is the one .drtb decoder: it checks a complete file image
// (header, exact size, then CSR.Validate on the matrix) and builds its
// operand. With munmap, the mmap path on a host that passes
// binaryAliasOK, the matrix arrays are views of data and Close calls
// munmap; without, they are decoded into the heap and data is not kept.
func decodeBinary(data []byte, munmap func() error) (*Operand, error) {
	if len(data) < binaryHeaderSize {
		return nil, fmt.Errorf("tensor: truncated .drtb header: %d bytes", len(data))
	}
	h, err := decodeBinaryHeader(data[:binaryHeaderSize])
	if err != nil {
		return nil, err
	}
	if want := BinarySize(h.rows, h.nnz); int64(len(data)) != want {
		return nil, fmt.Errorf("tensor: .drtb size %d, want %d (truncated or corrupt)", len(data), want)
	}
	idxOff := binaryHeaderSize + (h.rows+1)*8
	valOff := idxOff + h.nnz*8
	alias := munmap != nil
	m := &CSR{Rows: h.rows, Cols: h.cols,
		Ptr: array[int](data[binaryHeaderSize:], h.rows+1, alias),
		Idx: array[int](data[idxOff:], h.nnz, alias),
		Val: array[float64](data[valOff:], h.nnz, alias)}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("tensor: corrupt .drtb: %w", err)
	}
	return &Operand{CSR: m, munmap: munmap}, nil
}

// array returns the n little-endian values at the start of b (nil when n
// is 0): a view of b when alias, else a heap copy.
func array[E int | float64](b []byte, n int, alias bool) []E {
	if n == 0 {
		return nil
	}
	if alias {
		return unsafe.Slice((*E)(unsafe.Pointer(&b[0])), n)
	}
	s := make([]E, n)
	switch s := any(s).(type) {
	case []int:
		for i := range s {
			s[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
	case []float64:
		for i := range s {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return s
}

// OpenBinary opens a .drtb file with its arrays memory-mapped when the
// platform and host allow it (binaryAliasOK), and reads it into the heap
// otherwise. The returned operand's matrices alias the mapping on the
// fast path — see Operand.
func OpenBinary(path string) (*Operand, error) {
	data, unmap, err := diskcache.Map(path, binaryAliasOK)
	if err != nil {
		return nil, err
	}
	op, err := decodeBinary(data, unmap)
	if err != nil && unmap != nil {
		unmap()
	}
	return op, err
}
