package tensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"unsafe"
)

// Binary operand format (.drtb): a versioned little-endian dump of one
// compressed sparse matrix, designed so a memory-mapped file IS the
// in-memory representation — OpenBinary on a little-endian host builds a
// matrix whose Ptr/Idx/Val slices alias the mapping directly, with no
// copy and the value pages streamed on demand. Every decoder checks the
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
// little-endian; on it the bulk (reinterpret-cast) read/write paths apply.
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
// shape at the given index width (4 or 8 bytes).
func BinarySize(rows, nnz int, width int) int64 {
	elems := int64(rows) + 1 + int64(nnz)
	return binaryHeaderSize + elems*int64(width) +
		int64(binaryPad(elems, width)) + int64(nnz)*8
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

// WriteBinaryFile writes the matrix to path in .drtb form.
func WriteBinaryFile[T Ix](path string, c *Mat[T]) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// ReadBinary reads a .drtb stream fully into memory. A truncated stream
// is reported as an error ("truncated"), never as a silently short
// matrix, and a structurally invalid one as "corrupt". The arrays grow as
// their bytes arrive, so a header's lengths cannot allocate more than
// the stream holds.
func ReadBinary(r io.Reader) (*Operand, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [binaryHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("tensor: truncated .drtb header: %w", err)
	}
	h, err := decodeBinaryHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	if h.ix32 {
		m := &CSR32{Rows: h.rows, Cols: h.cols}
		if m.Ptr, err = readIx[int32](br, h.rows+1); err == nil {
			if m.Idx, err = readIx[int32](br, h.nnz); err == nil {
				if err = skipPad(br, int64(h.rows+1+h.nnz), 4); err == nil {
					m.Val, err = readF64(br, h.nnz)
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("tensor: truncated .drtb body: %w", err)
		}
		return validated(&Operand{Compact: m})
	}
	m := &CSR{Rows: h.rows, Cols: h.cols}
	if m.Ptr, err = readIx[int](br, h.rows+1); err == nil {
		if m.Idx, err = readIx[int](br, h.nnz); err == nil {
			m.Val, err = readF64(br, h.nnz)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("tensor: truncated .drtb body: %w", err)
	}
	return validated(&Operand{Wide: m})
}

// validated returns op when its matrix is structurally valid.
func validated(op *Operand) (*Operand, error) {
	var err error
	if op.Wide != nil {
		err = op.Wide.Validate()
	} else {
		err = op.Compact.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("tensor: corrupt .drtb: %w", err)
	}
	return op, nil
}

// ReadBinaryFile reads a .drtb file fully into memory, verifying the file
// size against the header before decoding.
func ReadBinaryFile(path string) (*Operand, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := checkBinarySize(f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return ReadBinary(f)
}

// checkBinarySize verifies f's size matches its header exactly.
func checkBinarySize(f *os.File) error {
	var hdr [binaryHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("tensor: truncated .drtb header: %w", err)
	}
	h, err := decodeBinaryHeader(hdr[:])
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	width := 8
	if h.ix32 {
		width = 4
	}
	if want := BinarySize(h.rows, h.nnz, width); st.Size() != want {
		return fmt.Errorf("tensor: .drtb size %d, want %d (truncated or corrupt)", st.Size(), want)
	}
	return nil
}

// readChunk bounds, in bytes, how far a stream decode allocates ahead of
// the data: arrays grow one chunk at a time as their bytes arrive.
const readChunk = 1 << 20

// readElems reads n elements, filling the slice one chunk at a time with
// fill as it grows.
func readElems[E any](r io.Reader, n int, fill func(io.Reader, []E) error) ([]E, error) {
	var zero E
	step := readChunk / int(unsafe.Sizeof(zero))
	s := make([]E, 0, min(n, step))
	for len(s) < n {
		lo := len(s)
		c := min(n-lo, step)
		s = slices.Grow(s, c)[:lo+c]
		if err := fill(r, s[lo:]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// readIx reads n little-endian index elements of type T.
func readIx[T Ix](r io.Reader, n int) ([]T, error) { return readElems(r, n, fillIx[T]) }

// readF64 reads n little-endian float64 values.
func readF64(r io.Reader, n int) ([]float64, error) { return readElems(r, n, fillF64) }

// fillIx fills s with little-endian index elements. On a little-endian
// host with native-width elements its backing bytes are filled in one
// ReadFull.
func fillIx[T Ix](r io.Reader, s []T) error {
	width := int(unsafe.Sizeof(s[0]))
	if hostLittleEndian && (width == 4 || strconv.IntSize == 64) {
		_, err := io.ReadFull(r, unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*width))
		return err
	}
	var buf [8]byte
	for i := range s {
		if _, err := io.ReadFull(r, buf[:width]); err != nil {
			return err
		}
		if width == 4 {
			s[i] = T(int32(binary.LittleEndian.Uint32(buf[:4])))
		} else {
			s[i] = T(int64(binary.LittleEndian.Uint64(buf[:8])))
		}
	}
	return nil
}

// fillF64 fills s with little-endian float64 values.
func fillF64(r io.Reader, s []float64) error {
	if hostLittleEndian {
		_, err := io.ReadFull(r, unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8))
		return err
	}
	var buf [8]byte
	for i := range s {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return err
		}
		s[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	return nil
}

// skipPad consumes the zero padding between the index and value arrays.
func skipPad(r io.Reader, elems int64, width int) error {
	pad := binaryPad(elems, width)
	if pad == 0 {
		return nil
	}
	var buf [8]byte
	_, err := io.ReadFull(r, buf[:pad])
	return err
}

// OpenBinary opens a .drtb file with its arrays memory-mapped when the
// platform and host byte order allow it (the mmap fast path needs a
// little-endian host whose int width matches the file's wide form), and
// falls back to a full heap read otherwise. The returned operand's
// matrices alias the mapping on the fast path — see Operand.
func OpenBinary(path string) (*Operand, error) {
	op, ok, err := openBinaryMmap(path)
	if err != nil {
		return nil, err
	}
	if ok {
		return op, nil
	}
	return ReadBinaryFile(path)
}

// mapBinary builds an Operand over an mmap'd file image. The data slice
// must be page-aligned (as mmap returns) so the 8-aligned file offsets
// stay 8-aligned in memory.
func mapBinary(data []byte, munmap func() error) (*Operand, error) {
	if len(data) < binaryHeaderSize {
		return nil, fmt.Errorf("tensor: truncated .drtb header: %d bytes", len(data))
	}
	h, err := decodeBinaryHeader(data[:binaryHeaderSize])
	if err != nil {
		return nil, err
	}
	width := 8
	if h.ix32 {
		width = 4
	}
	if want := BinarySize(h.rows, h.nnz, width); int64(len(data)) != want {
		return nil, fmt.Errorf("tensor: .drtb size %d, want %d (truncated or corrupt)", len(data), want)
	}
	elems := int64(h.rows) + 1 + int64(h.nnz)
	valOff := binaryHeaderSize + elems*int64(width) + int64(binaryPad(elems, width))
	var val []float64
	if h.nnz > 0 {
		val = unsafe.Slice((*float64)(unsafe.Pointer(&data[valOff])), h.nnz)
	}
	op := &Operand{munmap: munmap}
	if h.ix32 {
		var ptr, idx []int32
		ptr = unsafe.Slice((*int32)(unsafe.Pointer(&data[binaryHeaderSize])), h.rows+1)
		if h.nnz > 0 {
			idx = unsafe.Slice((*int32)(unsafe.Pointer(&data[binaryHeaderSize+int64(h.rows+1)*4])), h.nnz)
		}
		op.Compact = &CSR32{Rows: h.rows, Cols: h.cols, Ptr: ptr, Idx: idx, Val: val}
		return validated(op)
	}
	var ptr, idx []int
	ptr = unsafe.Slice((*int)(unsafe.Pointer(&data[binaryHeaderSize])), h.rows+1)
	if h.nnz > 0 {
		idx = unsafe.Slice((*int)(unsafe.Pointer(&data[binaryHeaderSize+int64(h.rows+1)*8])), h.nnz)
	}
	op.Wide = &CSR{Rows: h.rows, Cols: h.cols, Ptr: ptr, Idx: idx, Val: val}
	return validated(op)
}
