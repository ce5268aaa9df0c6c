package accel

import (
	"strconv"
	"unsafe"

	"drt/internal/diskcache"
)

// TraceView is a read-only Trace over a .drtt file image. On the mmap
// fast path the trace's task/row/sub arrays alias the mapping directly —
// the fixed-width little-endian records are exactly the in-memory structs
// on a 64-bit little-endian host — so warm-store replay prices the file
// bytes with no decode-to-heap copy. When the platform or host layout
// rules the fast path out, the view wraps an ordinary heap decode and
// behaves identically.
//
// The view's Trace (and any result retimed from it) is valid until Close;
// cache layers that hand the trace to concurrent retimers keep the
// mapping open for the process lifetime instead, exactly like the operand
// cache's mmap-backed tensors.
type TraceView struct {
	tr    *Trace
	size  int64
	unmap func() error // non-nil on the mmap fast path
}

// Trace returns the viewed schedule. Retime and RetimeBatch price it
// exactly as they price a decoded trace — bit-for-bit identical results,
// pinned by the traceview equivalence tests.
func (v *TraceView) Trace() *Trace { return v.tr }

// Mapped reports whether the view runs on the zero-copy mmap path.
func (v *TraceView) Mapped() bool { return v.unmap != nil }

// Bytes returns the file image size the view covers.
func (v *TraceView) Bytes() int64 { return v.size }

// Close releases the mapping (a no-op for heap-backed views). The view's
// Trace must not be used afterwards.
func (v *TraceView) Close() error {
	v.tr = nil
	if v.unmap == nil {
		return nil
	}
	u := v.unmap
	v.unmap = nil
	return u()
}

// OpenTrace opens a .drtt file as a TraceView, memory-mapping it when the
// platform allows (unix, and a host that passes traceAliasOK — the same
// gating as the .drtb operand cache) and reading it into the heap
// otherwise. Both paths run the one decoder, decodeTrace, so a corrupt
// file is an error on either, never a scrambled schedule.
func OpenTrace(path string) (*TraceView, error) {
	data, unmap, err := diskcache.Map(path, traceAliasOK)
	if err != nil {
		return nil, err
	}
	tr, err := decodeTrace(data, unmap != nil)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	return &TraceView{tr: tr, size: int64(len(data)), unmap: unmap}, nil
}

// traceHostLittleEndian reports whether this machine stores integers
// little-endian, which the aliasing fast path requires.
var traceHostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// traceAliasOK reports whether the in-memory record structs are layout-
// compatible with the on-disk little-endian records, the precondition for
// aliasing a file image as trace arrays. The offsets are fixed by the
// format; the sizes also depend on the host's int width and struct
// padding, so they are checked at runtime rather than assumed.
var traceAliasOK = traceHostLittleEndian &&
	strconv.IntSize == 64 &&
	unsafe.Sizeof(traceTask{}) == traceTaskSize &&
	unsafe.Offsetof(traceTask{}.bytes) == 0 &&
	unsafe.Offsetof(traceTask{}.scanTiles) == 8 &&
	unsafe.Offsetof(traceTask{}.probes) == 16 &&
	unsafe.Offsetof(traceTask{}.rebuiltTiles) == 24 &&
	unsafe.Offsetof(traceTask{}.rowsLo) == 32 &&
	unsafe.Offsetof(traceTask{}.rowsHi) == 40 &&
	unsafe.Offsetof(traceTask{}.subsLo) == 48 &&
	unsafe.Offsetof(traceTask{}.subsHi) == 56 &&
	unsafe.Offsetof(traceTask{}.extsLo) == 64 &&
	unsafe.Offsetof(traceTask{}.extsHi) == 72 &&
	unsafe.Offsetof(traceTask{}.distsLo) == 80 &&
	unsafe.Offsetof(traceTask{}.distsHi) == 88 &&
	unsafe.Sizeof(rowCost{}) == traceItemSize &&
	unsafe.Offsetof(rowCost{}.scanned) == 0 &&
	unsafe.Offsetof(rowCost{}.maccs) == 8 &&
	unsafe.Sizeof(distEvent{}) == traceItemSize &&
	unsafe.Offsetof(distEvent{}.footprint) == 0 &&
	unsafe.Offsetof(distEvent{}.multicast) == 8
