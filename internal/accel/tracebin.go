package accel

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
)

// Binary trace format (.drtt): a versioned little-endian dump of one
// recorded schedule (accel.Trace), the persistence layer behind the
// on-disk trace store. It follows the .drtb operand format's discipline
// (internal/tensor/binary.go): a fixed header, every section 8-aligned,
// and an exact-size check so truncated or padded files are rejected
// before any array is trusted.
//
// Layout (all little-endian):
//
//	offset  size  field
//	     0     4  magic "DRTT"
//	     4     4  uint32 version (currently 1)
//	     8     4  uint32 flags (bit 0: hierarchical)
//	    12     4  uint32 nameLen (bytes of the workload name)
//	    16     8  int64 nTasks   (non-empty tasks)
//	    24     8  int64 nRows    (intersection work items)
//	    32     8  int64 nSubs    (PE sub-task work items)
//	    40     8  int64 nExts    (Aggregate tile counts)
//	    48     8  int64 nDists   (NoC distribution events)
//	    56     8  reserved (0)
//	    64   112  section table: 7 × {int64 offset, int64 bytes}, in file
//	              order — name, ledger, tasks, rows, subs, exts, dists
//	   176     …  name bytes, zero-padded to a multiple of 8
//	     …    72  ledger: trafficA, trafficB, trafficZ, maccs,
//	              intersectOps, tasks, emptyTasks, overflows, inputTraffic
//	     …     …  tasks: nTasks × 96 (bytes, scanTiles, probes,
//	              rebuiltTiles, rowsLo, rowsHi, subsLo, subsHi, extsLo,
//	              extsHi, distsLo, distsHi — all int64)
//	     …     …  rows:  nRows  × 16 (scanned, maccs)
//	     …     …  subs:  nSubs  × 16 (scanned, maccs)
//	     …     …  exts:  nExts  ×  8 (tile count)
//	     …     …  dists: nDists × 16 (footprint, flags bit 0: multicast)
//
// Every offset and length in the section table is fully determined by the
// header's counts; the table is written anyway and verified on read, so a
// corrupt header and a corrupt body cannot agree by accident. Decoding
// additionally re-derives the engine's capture invariants — each task's
// per-kind [lo, hi) windows are contiguous, ascending, and jointly cover
// each item array exactly — so a file of plausible sizes but scrambled
// content is rejected rather than retimed into garbage.
const (
	traceMagic      = "DRTT"
	traceHeaderSize = 64
	traceSections   = 7
	traceTableSize  = traceSections * 16
	traceLedgerSize = 9 * 8
	traceTaskSize   = 12 * 8
	traceItemSize   = 2 * 8

	traceFlagHier = 1 << 0

	// traceMaxName bounds the workload-name section; real names are tens
	// of bytes, so anything larger marks a corrupt header.
	traceMaxName = 1 << 16
)

// TraceFormatVersion is the .drtt format generation. Cache layers fold it
// into their keys as a salt: bumping it (for any change to this layout or
// to what a recorded schedule contains) makes every stored trace
// unreachable rather than misread.
const TraceFormatVersion = 1

// tracePad8 returns the zero padding that 8-aligns a section of n bytes.
func tracePad8(n int) int { return (-n) & 7 }

// TraceBinarySize returns the exact .drtt file size for the trace.
func (t *Trace) TraceBinarySize() int64 {
	return traceBinarySize(len(t.Name), len(t.taskRecs), len(t.rows), len(t.subs), len(t.exts), len(t.dists))
}

// traceBinarySize returns the exact .drtt file size for the given counts.
// Counts the header check admits (up to 2^56 each) can imply more than
// int64 holds; the size then saturates at math.MaxInt64, more than any
// file holds.
func traceBinarySize(nameLen, nTasks, nRows, nSubs, nExts, nDists int) int64 {
	n := uint64(traceHeaderSize+traceTableSize+traceLedgerSize) +
		uint64(nameLen+tracePad8(nameLen)) +
		uint64(nTasks)*traceTaskSize +
		uint64(nRows)*traceItemSize +
		uint64(nSubs)*traceItemSize +
		uint64(nExts)*8 +
		uint64(nDists)*traceItemSize
	return int64(min(n, math.MaxInt64))
}

// traceIOBuffer sizes WriteBinary's bufio wrapper. It only batches the
// small fixed fields: section bodies move in large writes that bypass the
// buffer, so a small buffer keeps each call from allocating and zeroing a
// megabyte.
const traceIOBuffer = 64 << 10

// traceEncoder streams little-endian fields into the underlying buffered
// writer.
type traceEncoder struct {
	w   *bufio.Writer
	err error
}

func (e *traceEncoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, e.err = e.w.Write(b[:])
}

func (e *traceEncoder) i64(v int64) { e.u64(uint64(v)) }

func (e *traceEncoder) bytes(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *traceEncoder) pad(n int) {
	var zero [8]byte
	e.bytes(zero[:n])
}

// WriteBinary writes the trace in .drtt form.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, traceIOBuffer)
	e := &traceEncoder{w: bw}

	if len(t.Name) > traceMaxName {
		return fmt.Errorf("accel: trace name of %d bytes exceeds the format's %d-byte bound", len(t.Name), traceMaxName)
	}

	var hdr [traceHeaderSize]byte
	copy(hdr[0:4], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], TraceFormatVersion)
	var flags uint32
	if t.hierarchical {
		flags |= traceFlagHier
	}
	binary.LittleEndian.PutUint32(hdr[8:12], flags)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(t.Name)))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(t.taskRecs)))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(t.rows)))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(len(t.subs)))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(len(t.exts)))
	binary.LittleEndian.PutUint64(hdr[48:56], uint64(len(t.dists)))
	e.bytes(hdr[:])

	for _, s := range traceSectionTable(len(t.Name), len(t.taskRecs), len(t.rows), len(t.subs), len(t.exts), len(t.dists)) {
		e.i64(s[0])
		e.i64(s[1])
	}

	e.bytes([]byte(t.Name))
	e.pad(tracePad8(len(t.Name)))

	e.i64(t.traffic.A)
	e.i64(t.traffic.B)
	e.i64(t.traffic.Z)
	e.i64(t.maccs)
	e.i64(t.intersectOps)
	e.i64(int64(t.tasks))
	e.i64(int64(t.emptyTasks))
	e.i64(int64(t.overflows))
	e.i64(t.inputTraffic)

	for i := range t.taskRecs {
		tr := &t.taskRecs[i]
		e.i64(tr.bytes)
		e.i64(tr.scanTiles)
		e.i64(int64(tr.probes))
		e.i64(tr.rebuiltTiles)
		e.i64(int64(tr.rowsLo))
		e.i64(int64(tr.rowsHi))
		e.i64(int64(tr.subsLo))
		e.i64(int64(tr.subsHi))
		e.i64(int64(tr.extsLo))
		e.i64(int64(tr.extsHi))
		e.i64(int64(tr.distsLo))
		e.i64(int64(tr.distsHi))
	}
	for _, r := range t.rows {
		e.i64(r.scanned)
		e.i64(r.maccs)
	}
	for _, s := range t.subs {
		e.i64(s.scanned)
		e.i64(s.maccs)
	}
	for _, n := range t.exts {
		e.i64(n)
	}
	for _, d := range t.dists {
		e.i64(d.footprint)
		var f uint64
		if d.multicast {
			f = 1
		}
		e.u64(f)
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// traceSectionTable lists every section's (offset, bytes) pair in file
// order for the given counts.
func traceSectionTable(nameLen, nTasks, nRows, nSubs, nExts, nDists int) [traceSections][2]int64 {
	var tbl [traceSections][2]int64
	off := int64(traceHeaderSize + traceTableSize)
	add := func(i int, size int64) {
		tbl[i] = [2]int64{off, size}
		off += size
	}
	add(0, int64(nameLen)+int64(tracePad8(nameLen)))
	add(1, traceLedgerSize)
	add(2, int64(nTasks)*traceTaskSize)
	add(3, int64(nRows)*traceItemSize)
	add(4, int64(nSubs)*traceItemSize)
	add(5, int64(nExts)*8)
	add(6, int64(nDists)*traceItemSize)
	return tbl
}

// traceHeader is the decoded fixed-size prefix of a .drtt file.
type traceHeader struct {
	hierarchical                        bool
	nameLen                             int
	nTasks, nRows, nSubs, nExts, nDists int
}

func decodeTraceHeader(hdr []byte) (traceHeader, error) {
	var h traceHeader
	if string(hdr[0:4]) != traceMagic {
		return h, fmt.Errorf("accel: not a .drtt trace (magic %q)", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != TraceFormatVersion {
		return h, fmt.Errorf("accel: unsupported .drtt version %d (want %d)", v, TraceFormatVersion)
	}
	flags := binary.LittleEndian.Uint32(hdr[8:12])
	if flags&^uint32(traceFlagHier) != 0 {
		return h, fmt.Errorf("accel: unknown .drtt flags %#x", flags)
	}
	h.hierarchical = flags&traceFlagHier != 0
	h.nameLen = int(binary.LittleEndian.Uint32(hdr[12:16]))
	if h.nameLen > traceMaxName {
		return h, fmt.Errorf("accel: .drtt name of %d bytes is implausible", h.nameLen)
	}
	counts := [5]*int{&h.nTasks, &h.nRows, &h.nSubs, &h.nExts, &h.nDists}
	for i, dst := range counts {
		v := int64(binary.LittleEndian.Uint64(hdr[16+8*i : 24+8*i]))
		// Each item is at least 8 bytes on disk, so any count past 2^56
		// describes a file no filesystem holds — reject before the
		// size arithmetic below can overflow.
		if v < 0 || v > 1<<56 {
			return h, fmt.Errorf("accel: implausible .drtt section count %d", v)
		}
		*dst = int(v)
	}
	if binary.LittleEndian.Uint64(hdr[56:64]) != 0 {
		return h, fmt.Errorf("accel: nonzero reserved .drtt header field")
	}
	// The capture pass fills exactly one family of per-item arrays: rows
	// for the flat engine, subs/exts/dists for the hierarchical one.
	if h.hierarchical && h.nRows != 0 {
		return h, fmt.Errorf("accel: hierarchical .drtt carries %d flat row items", h.nRows)
	}
	if !h.hierarchical && (h.nSubs != 0 || h.nExts != 0 || h.nDists != 0) {
		return h, fmt.Errorf("accel: flat .drtt carries PE-level items")
	}
	return h, nil
}

// decodeTrace is the one .drtt decoder: it checks a complete file image —
// header, exact size, section table, distribution flags and the task
// windows — and builds its Trace. With alias, the mmap path on a host
// that passes traceAliasOK, the per-task and per-item arrays (everything
// that scales with the schedule) are views of data, which must be
// 8-aligned as mmap's page-aligned memory is; without, they are decoded
// into the heap and data is not kept. A distEvent's multicast bool
// aliases the low byte of the on-disk flags word, so any flag bit beyond
// bit 0 marks a corrupt file on both paths.
func decodeTrace(data []byte, alias bool) (*Trace, error) {
	if len(data) < traceHeaderSize {
		return nil, fmt.Errorf("accel: truncated .drtt header: %d bytes", len(data))
	}
	h, err := decodeTraceHeader(data[:traceHeaderSize])
	if err != nil {
		return nil, err
	}
	if want := traceBinarySize(h.nameLen, h.nTasks, h.nRows, h.nSubs, h.nExts, h.nDists); int64(len(data)) != want {
		return nil, fmt.Errorf("accel: .drtt size %d, want %d (truncated or corrupt)", len(data), want)
	}
	var sec [traceSections][]byte
	for i, want := range traceSectionTable(h.nameLen, h.nTasks, h.nRows, h.nSubs, h.nExts, h.nDists) {
		raw := data[traceHeaderSize+16*i:]
		off, size := int64(binary.LittleEndian.Uint64(raw)), int64(binary.LittleEndian.Uint64(raw[8:]))
		if off != want[0] || size != want[1] {
			return nil, fmt.Errorf("accel: .drtt section %d is (%d,%d), header implies (%d,%d) — corrupt",
				i, off, size, want[0], want[1])
		}
		sec[i] = data[off : off+size]
	}

	tr := &Trace{Name: string(sec[0][:h.nameLen]), hierarchical: h.hierarchical}
	li := func(i int) int64 { return int64(binary.LittleEndian.Uint64(sec[1][8*i:])) }
	tr.traffic.A, tr.traffic.B, tr.traffic.Z = li(0), li(1), li(2)
	tr.maccs, tr.intersectOps = li(3), li(4)
	tr.tasks, tr.emptyTasks, tr.overflows = int(li(5)), int(li(6)), int(li(7))
	tr.inputTraffic = li(8)

	for i := 0; i < h.nDists; i++ {
		if flags := binary.LittleEndian.Uint64(sec[6][16*i+8:]); flags&^uint64(1) != 0 {
			return nil, fmt.Errorf("accel: corrupt .drtt distribution section: unknown distribution flags %#x", flags)
		}
	}
	if alias {
		tr.taskRecs = view[traceTask](sec[2], h.nTasks)
		tr.rows = view[rowCost](sec[3], h.nRows)
		tr.subs = view[rowCost](sec[4], h.nSubs)
		tr.exts = view[int64](sec[5], h.nExts)
		tr.dists = view[distEvent](sec[6], h.nDists)
	} else {
		f := func(b []byte, j int) int64 { return int64(binary.LittleEndian.Uint64(b[8*j:])) }
		tr.taskRecs = decodeRecs(sec[2], traceTaskSize, func(b []byte) traceTask {
			return traceTask{
				bytes: f(b, 0), scanTiles: f(b, 1), probes: int(f(b, 2)), rebuiltTiles: f(b, 3),
				rowsLo: int(f(b, 4)), rowsHi: int(f(b, 5)),
				subsLo: int(f(b, 6)), subsHi: int(f(b, 7)),
				extsLo: int(f(b, 8)), extsHi: int(f(b, 9)),
				distsLo: int(f(b, 10)), distsHi: int(f(b, 11)),
			}
		})
		cost := func(b []byte) rowCost { return rowCost{scanned: f(b, 0), maccs: f(b, 1)} }
		tr.rows = decodeRecs(sec[3], traceItemSize, cost)
		tr.subs = decodeRecs(sec[4], traceItemSize, cost)
		tr.exts = decodeRecs(sec[5], 8, func(b []byte) int64 { return f(b, 0) })
		tr.dists = decodeRecs(sec[6], traceItemSize, func(b []byte) distEvent {
			return distEvent{footprint: f(b, 0), multicast: f(b, 1)&1 != 0}
		})
	}

	if err := tr.validateWindows(); err != nil {
		return nil, err
	}
	return tr, nil
}

// view returns the n records of E at the start of b as a slice aliasing
// b (nil when n is 0, as for a kind the capture pass left empty).
func view[E any](b []byte, n int) []E {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*E)(unsafe.Pointer(&b[0])), n)
}

// decodeRecs decodes a section of rec-byte records into a fresh slice
// (nil when the section is empty).
func decodeRecs[E any](sec []byte, rec int, dec func([]byte) E) []E {
	if len(sec) == 0 {
		return nil
	}
	out := make([]E, len(sec)/rec)
	for i := range out {
		out[i] = dec(sec[i*rec:])
	}
	return out
}

// validateWindows re-derives the capture pass's structural invariants:
// every task's per-kind [lo, hi) windows are contiguous and ascending,
// and together they cover each item array exactly. Any file that fails
// this was not written by RecordTasks + WriteBinary, whatever its sizes
// claim.
func (t *Trace) validateWindows() error {
	var rows, subs, exts, dists int
	for i := range t.taskRecs {
		tr := &t.taskRecs[i]
		for _, w := range [4]struct {
			lo, hi int
			prev   *int
			kind   string
		}{
			{tr.rowsLo, tr.rowsHi, &rows, "row"},
			{tr.subsLo, tr.subsHi, &subs, "sub-task"},
			{tr.extsLo, tr.extsHi, &exts, "extraction"},
			{tr.distsLo, tr.distsHi, &dists, "distribution"},
		} {
			if w.lo != *w.prev || w.hi < w.lo {
				return fmt.Errorf("accel: .drtt task %d %s window [%d,%d) breaks contiguity at %d — corrupt",
					i, w.kind, w.lo, w.hi, *w.prev)
			}
			*w.prev = w.hi
		}
	}
	if rows != len(t.rows) || subs != len(t.subs) || exts != len(t.exts) || dists != len(t.dists) {
		return fmt.Errorf("accel: .drtt task windows cover (%d,%d,%d,%d) items of (%d,%d,%d,%d) stored — corrupt",
			rows, subs, exts, dists, len(t.rows), len(t.subs), len(t.exts), len(t.dists))
	}
	return nil
}

// WriteTraceFile writes the trace to path in .drtt form.
func WriteTraceFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
