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
// in-memory representation — OpenBinary on a little-endian host builds a
// matrix whose Ptr/Idx/Val slices alias the mapping directly, with no
// copy and the value pages streamed on demand. OpenBinary hands the
// complete file image to the one decoder (decodeBinary), which checks the
// matrix structure (Mat.Validate) before returning it, one sequential
// pass over Ptr and Idx, so a damaged file is an error, never a matrix
// whose indices run out of range.
//
// Layout (all little-endian):
//
//	offset  size  field
//	     0     4  magic "DRTB"
//	     4     4  uint32 version (currently 1)
//	     8     4  uint32 flags (bit 0: indices are 32-bit)
//	    12     4  uint32 reserved (0)
//	    16     8  int64 rows
//	    24     8  int64 cols
//	    32     8  int64 nnz
//	    40     …  Ptr  (rows+1 elements at the index width)
//	     …     …  Idx  (nnz elements at the index width)
//	     …   0-4  zero padding to the next multiple of 8
//	     …     …  Val  (nnz float64)
//
// The 40-byte header and the padding keep every array 8-aligned within
// the file, which the mmap fast path requires.
const (
	binaryMagic   = "DRTB"
	binaryVersion = 1

	binaryFlagIx32 = 1 << 0

	binaryHeaderSize = 40
)

// hostLittleEndian reports whether this machine stores integers
// little-endian; on it the bulk (reinterpret-cast) write path applies, and
// mapped images can serve as the arrays (binaryAliasOK).
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ix32 reports whether the instantiated index type T is 32 bits wide.
func ix32[T Ix]() bool {
	var v T
	return unsafe.Sizeof(v) == 4
}

// binaryPad returns the zero-padding length after the index arrays of a
// matrix with the given element count at the given width.
func binaryPad(elems int64, width int) int {
	return int((-elems * int64(width)) & 7)
}

// BinarySize returns the exact .drtb file size for a matrix of the given
// shape at the given index width (4 or 8 bytes). A shape the header check
// admits can imply more than int64 holds; its size saturates at
// math.MaxInt64, more than any file holds.
func BinarySize(rows, nnz int, width int) int64 {
	elems := int64(rows) + 1 + int64(nnz)
	n := binaryHeaderSize + uint64(elems)*uint64(width) +
		uint64(binaryPad(elems, width)) + uint64(nnz)*8
	return int64(min(n, math.MaxInt64))
}

// WriteBinary writes the matrix in .drtb form at the receiver's index
// width: a wide matrix stores 64-bit indices, a compact one 32-bit.
// Compact before writing when the shape fits — the on-disk saving is the
// same factor-of-two the in-memory form enjoys.
func (c *Mat[T]) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [binaryHeaderSize]byte
	copy(hdr[0:4], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], binaryVersion)
	var flags uint32
	width := 8
	if ix32[T]() {
		flags |= binaryFlagIx32
		width = 4
	}
	binary.LittleEndian.PutUint32(hdr[8:12], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(c.Rows))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(c.Cols))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(c.NNZ()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeIx(bw, c.Ptr); err != nil {
		return err
	}
	if err := writeIx(bw, c.Idx); err != nil {
		return err
	}
	elems := int64(len(c.Ptr)) + int64(len(c.Idx))
	if pad := binaryPad(elems, width); pad > 0 {
		var zero [8]byte
		if _, err := bw.Write(zero[:pad]); err != nil {
			return err
		}
	}
	if err := writeF64(bw, c.Val); err != nil {
		return err
	}
	return bw.Flush()
}

// writeIx writes an index slice little-endian at its element width. On a
// little-endian host with native-width elements the slice's backing bytes
// are written in one call; otherwise elements are encoded one at a time.
func writeIx[T Ix](w io.Writer, s []T) error {
	if len(s) == 0 {
		return nil
	}
	width := int(unsafe.Sizeof(s[0]))
	if hostLittleEndian && (width == 4 || strconv.IntSize == 64) {
		b := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*width)
		_, err := w.Write(b)
		return err
	}
	var buf [8]byte
	for _, v := range s {
		if width == 4 {
			binary.LittleEndian.PutUint32(buf[:4], uint32(int32(v)))
		} else {
			binary.LittleEndian.PutUint64(buf[:8], uint64(int64(v)))
		}
		if _, err := w.Write(buf[:width]); err != nil {
			return err
		}
	}
	return nil
}

// writeF64 writes the value array little-endian.
func writeF64(w io.Writer, s []float64) error {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		b := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
		_, err := w.Write(b)
		return err
	}
	var buf [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// Operand is a matrix loaded from the binary format at whichever index
// width the file stored. Exactly one of Wide/Compact is non-nil. When the
// operand is mmap-backed its slices alias the mapping: keep it (and any
// matrices or workloads built over its slices) alive for as long as they
// are used, and Close only when done.
type Operand struct {
	Wide    *CSR
	Compact *CSR32
	munmap  func() error
}

// Mapped reports whether the operand's arrays alias a file mapping.
func (o *Operand) Mapped() bool { return o != nil && o.munmap != nil }

// Close releases the file mapping, if any. The operand's matrices must
// not be used afterwards.
func (o *Operand) Close() error {
	if o == nil || o.munmap == nil {
		return nil
	}
	m := o.munmap
	o.munmap = nil
	return m()
}

// Widened returns the operand as a wide matrix, converting (copying the
// index arrays) when the file stored the compact width.
func (o *Operand) Widened() *CSR {
	if o.Wide != nil {
		return o.Wide
	}
	return o.Compact.Widen()
}

// Shape returns the operand's dimensions and occupancy.
func (o *Operand) Shape() (rows, cols, nnz int) {
	if o.Wide != nil {
		return o.Wide.Rows, o.Wide.Cols, o.Wide.NNZ()
	}
	return o.Compact.Rows, o.Compact.Cols, o.Compact.NNZ()
}

// binaryHeader is the decoded fixed-size prefix of a .drtb file.
type binaryHeader struct {
	rows, cols, nnz int
	ix32            bool
}

// width returns the on-disk index width in bytes.
func (h binaryHeader) width() int {
	if h.ix32 {
		return 4
	}
	return 8
}

func decodeBinaryHeader(hdr []byte) (binaryHeader, error) {
	var h binaryHeader
	if string(hdr[0:4]) != binaryMagic {
		return h, fmt.Errorf("tensor: not a .drtb file (magic %q)", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != binaryVersion {
		return h, fmt.Errorf("tensor: unsupported .drtb version %d (want %d)", v, binaryVersion)
	}
	flags := binary.LittleEndian.Uint32(hdr[8:12])
	if flags&^uint32(binaryFlagIx32) != 0 {
		return h, fmt.Errorf("tensor: unknown .drtb flags %#x", flags)
	}
	h.ix32 = flags&binaryFlagIx32 != 0
	rows := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	cols := int64(binary.LittleEndian.Uint64(hdr[24:32]))
	nnz := int64(binary.LittleEndian.Uint64(hdr[32:40]))
	if rows < 0 || cols < 0 || nnz < 0 || rows > math.MaxInt32*64 || nnz > math.MaxInt64/16 {
		return h, fmt.Errorf("tensor: implausible .drtb shape %dx%d nnz=%d", rows, cols, nnz)
	}
	if h.ix32 && !CompactFits(int(rows), int(cols), int(nnz)) {
		return h, fmt.Errorf("tensor: .drtb claims 32-bit indices but shape %dx%d nnz=%d does not fit", rows, cols, nnz)
	}
	h.rows, h.cols, h.nnz = int(rows), int(cols), int(nnz)
	return h, nil
}

// binaryAliasOK reports whether a mapped .drtb image can serve as the
// matrix arrays in place: a little-endian host whose int is the wide
// form's 64 bits.
var binaryAliasOK = hostLittleEndian && strconv.IntSize == 64

// decodeBinary is the one .drtb decoder: it checks a complete file image
// (header, exact size, then Mat.Validate on the matrix) and builds its
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
	w := h.width()
	if want := BinarySize(h.rows, h.nnz, w); int64(len(data)) != want {
		return nil, fmt.Errorf("tensor: .drtb size %d, want %d (truncated or corrupt)", len(data), want)
	}
	idxOff := binaryHeaderSize + (h.rows+1)*w
	elems := int64(h.rows) + 1 + int64(h.nnz)
	valOff := idxOff + h.nnz*w + binaryPad(elems, w)
	alias := munmap != nil
	op := &Operand{munmap: munmap}
	val := array[float64](data[valOff:], h.nnz, alias)
	if h.ix32 {
		op.Compact = &CSR32{Rows: h.rows, Cols: h.cols, Val: val,
			Ptr: array[int32](data[binaryHeaderSize:], h.rows+1, alias),
			Idx: array[int32](data[idxOff:], h.nnz, alias)}
		err = op.Compact.Validate()
	} else {
		op.Wide = &CSR{Rows: h.rows, Cols: h.cols, Val: val,
			Ptr: array[int](data[binaryHeaderSize:], h.rows+1, alias),
			Idx: array[int](data[idxOff:], h.nnz, alias)}
		err = op.Wide.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("tensor: corrupt .drtb: %w", err)
	}
	return op, nil
}

// array returns the n little-endian values at the start of b (nil when n
// is 0): a view of b when alias, else a heap copy.
func array[E int32 | int | float64](b []byte, n int, alias bool) []E {
	if n == 0 {
		return nil
	}
	if alias {
		return unsafe.Slice((*E)(unsafe.Pointer(&b[0])), n)
	}
	s := make([]E, n)
	switch s := any(s).(type) {
	case []int32:
		for i := range s {
			s[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
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
