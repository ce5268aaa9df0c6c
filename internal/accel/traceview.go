package accel

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"unsafe"
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
	tr     *Trace
	mapped []byte // non-nil on the mmap fast path
	size   int64
	unmap  func() error
}

// Trace returns the viewed schedule. Retime and RetimeBatch price it
// exactly as they price a decoded trace — bit-for-bit identical results,
// pinned by the traceview equivalence tests.
func (v *TraceView) Trace() *Trace { return v.tr }

// Mapped reports whether the view runs on the zero-copy mmap path.
func (v *TraceView) Mapped() bool { return v.mapped != nil }

// Bytes returns the file image size the view covers.
func (v *TraceView) Bytes() int64 { return v.size }

// Close releases the mapping (a no-op for heap-backed views). The view's
// Trace must not be used afterwards.
func (v *TraceView) Close() error {
	v.tr = nil
	v.mapped = nil
	if v.unmap == nil {
		return nil
	}
	u := v.unmap
	v.unmap = nil
	return u()
}

// OpenTrace opens a .drtt file as a TraceView, memory-mapping it when the
// platform allows (unix, little-endian, 64-bit ints — the same gating as
// the .drtb operand cache) and falling back to a heap decode otherwise.
// Validation matches ReadTraceFile exactly: header, section table, exact
// file size, distribution flags, and the capture pass's window invariants
// are all re-checked, so a corrupt file is an error on either path, never
// a scrambled schedule.
func OpenTrace(path string) (*TraceView, error) {
	if traceAliasOK {
		data, ok, err := mmapTraceFile(path)
		if err != nil {
			return nil, err
		}
		if ok {
			tr, err := traceFromImage(data)
			if err != nil {
				unmapTrace(data)
				return nil, err
			}
			return &TraceView{tr: tr, mapped: data, size: int64(len(data)), unmap: func() error { return unmapTrace(data) }}, nil
		}
	}
	tr, err := ReadTraceFile(path)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return &TraceView{tr: tr, size: st.Size()}, nil
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

// traceFromImage builds a Trace whose arrays alias a complete .drtt file
// image. data must be 8-aligned (mmap returns page-aligned memory) and
// the host must pass traceAliasOK. The small sections (name, ledger) are
// decoded to the heap; the per-task and per-item arrays — everything that
// scales with the schedule — stay views over the image.
//
// A distEvent's multicast bool aliases the low byte of the on-disk flags
// word, so the flags are validated here exactly as the heap decoder
// validates them: any bit beyond bit 0 marks a corrupt file.
func traceFromImage(data []byte) (*Trace, error) {
	if len(data) < traceHeaderSize+traceTableSize {
		return nil, fmt.Errorf("accel: truncated .drtt header: %d bytes", len(data))
	}
	h, err := decodeTraceHeader(data[:traceHeaderSize])
	if err != nil {
		return nil, err
	}
	if want := traceBinarySize(h.nameLen, h.nTasks, h.nRows, h.nSubs, h.nExts, h.nDists); int64(len(data)) != want {
		return nil, fmt.Errorf("accel: .drtt size %d, want %d (truncated or corrupt)", len(data), want)
	}
	want := traceSectionTable(h.nameLen, h.nTasks, h.nRows, h.nSubs, h.nExts, h.nDists)
	tbl := data[traceHeaderSize : traceHeaderSize+traceTableSize]
	for i := range want {
		off := int64(binary.LittleEndian.Uint64(tbl[16*i:]))
		size := int64(binary.LittleEndian.Uint64(tbl[16*i+8:]))
		if off != want[i][0] || size != want[i][1] {
			return nil, fmt.Errorf("accel: .drtt section %d is (%d,%d), header implies (%d,%d) — corrupt",
				i, off, size, want[i][0], want[i][1])
		}
	}

	tr := &Trace{hierarchical: h.hierarchical}
	tr.Name = string(data[want[0][0] : want[0][0]+int64(h.nameLen)])

	ledger := data[want[1][0] : want[1][0]+traceLedgerSize]
	li := func(i int) int64 { return int64(binary.LittleEndian.Uint64(ledger[8*i:])) }
	tr.traffic.A, tr.traffic.B, tr.traffic.Z = li(0), li(1), li(2)
	tr.maccs, tr.intersectOps = li(3), li(4)
	tr.tasks, tr.emptyTasks, tr.overflows = int(li(5)), int(li(6)), int(li(7))
	tr.inputTraffic = li(8)

	if h.nTasks > 0 {
		tr.taskRecs = unsafe.Slice((*traceTask)(unsafe.Pointer(&data[want[2][0]])), h.nTasks)
	}
	if h.nRows > 0 {
		tr.rows = unsafe.Slice((*rowCost)(unsafe.Pointer(&data[want[3][0]])), h.nRows)
	}
	if h.nSubs > 0 {
		tr.subs = unsafe.Slice((*rowCost)(unsafe.Pointer(&data[want[4][0]])), h.nSubs)
	}
	if h.nExts > 0 {
		tr.exts = unsafe.Slice((*int64)(unsafe.Pointer(&data[want[5][0]])), h.nExts)
	}
	if h.nDists > 0 {
		sec := data[want[6][0] : want[6][0]+want[6][1]]
		for i := 0; i < h.nDists; i++ {
			if flags := binary.LittleEndian.Uint64(sec[16*i+8:]); flags&^uint64(1) != 0 {
				return nil, fmt.Errorf("accel: corrupt .drtt distribution section: unknown distribution flags %#x", flags)
			}
		}
		tr.dists = unsafe.Slice((*distEvent)(unsafe.Pointer(&data[want[6][0]])), h.nDists)
	}

	if err := tr.validateWindows(); err != nil {
		return nil, err
	}
	return tr, nil
}
