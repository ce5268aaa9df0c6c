package accel

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"drt/internal/core"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/sim"
)

// aligned8 copies b into 8-aligned memory, as mmap's pages are.
func aligned8(b []byte) []byte {
	words := make([]uint64, (len(b)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(b))
	copy(out, b)
	return out
}

// decodeEachTrace runs the one .drtt decoder over a file image on each
// path an image takes: the heap path and, where the host allows aliasing,
// the aliased path over an 8-aligned copy.
func decodeEachTrace(data []byte, check func(via string, tr *Trace, err error)) {
	tr, err := decodeTrace(data, false)
	check("heap", tr, err)
	if traceAliasOK {
		tr, err := decodeTrace(aligned8(data), true)
		check("aliased", tr, err)
	}
}

// traceRoundTrip writes tr as .drtt, decodes the image on every path and
// opens the file form, and checks each for deep equality — the decoded
// trace must retime identically because it is field-for-field the same
// value.
func traceRoundTrip(t *testing.T, tr *Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if want := tr.TraceBinarySize(); int64(buf.Len()) != want {
		t.Fatalf("image is %d bytes, TraceBinarySize says %d", buf.Len(), want)
	}
	decodeEachTrace(buf.Bytes(), func(via string, got *Trace, err error) {
		if err != nil {
			t.Fatalf("%s decode: %v", via, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("%s round trip mismatch:\n got %+v\nwant %+v", via, got, tr)
		}
	})
	path := filepath.Join(t.TempDir(), "trace.drtt")
	if err := WriteTraceFile(path, tr); err != nil {
		t.Fatalf("WriteTraceFile: %v", err)
	}
	v, err := OpenTrace(path)
	if err != nil {
		t.Fatalf("OpenTrace: %v", err)
	}
	defer v.Close()
	if !reflect.DeepEqual(v.Trace(), tr) {
		t.Fatalf("file round trip mismatch:\n got %+v\nwant %+v", v.Trace(), tr)
	}
}

// recordedFixtures records real schedules on both engine levels, so the
// round-trip tests cover exactly what RecordTasks produces.
func recordedFixtures(t testing.TB) map[string]*Trace {
	return recordedFixturesOf(t, 128, 1500)
}

// recordedFixturesOf is recordedFixtures over n×n R-MAT operands with
// nnz non-zeros each.
func recordedFixturesOf(t testing.TB, n, nnz int) map[string]*Trace {
	t.Helper()
	a := gen.RMAT(n, nnz, 0.57, 0.19, 0.19, 3)
	b := gen.RMAT(n, nnz, 0.45, 0.25, 0.20, 4)
	w, err := NewWorkload(fmt.Sprintf("rmat%d", n), a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	flat := EngineOptions{
		Machine: sim.DefaultMachine(),
		CapA:    4 << 10, CapB: 4 << 10, CapO: 4 << 10,
		LoopOrder: []int{DimJ, DimK, DimI},
		Strategy:  core.GreedyContractedFirst,
		Intersect: sim.SkipBased,
		Extractor: extractor.ParallelExtractor,
	}
	hier := flat
	hier.PELevel = &PELevelOptions{
		CapA: 1 << 10, CapB: 1 << 10, CapO: 1 << 10,
		Strategy: core.GreedyContractedFirst,
	}
	out := map[string]*Trace{}
	for name, opt := range map[string]EngineOptions{"flat": flat, "hierarchical": hier} {
		tr, err := RecordTasks(w, opt)
		if err != nil {
			t.Fatal(err)
		}
		if tr.NumTasks() < 2 {
			t.Fatalf("%s fixture too small: %d tasks", name, tr.NumTasks())
		}
		out[name] = tr
	}
	return out
}

func TestTraceBinaryRoundTripRecorded(t *testing.T) {
	for name, tr := range recordedFixtures(t) {
		t.Run(name, func(t *testing.T) { traceRoundTrip(t, tr) })
	}
}

// TestTraceBinaryRetimeEquality pins the property the trace store relies
// on: a decoded trace retimes bit-for-bit like the one that was written.
func TestTraceBinaryRetimeEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, tr := range recordedFixtures(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tr.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := decodeTrace(buf.Bytes(), false)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				ro := RetimeOptions{Machine: scaleMachine(rng), Intersect: sim.Parallel, Extractor: extractor.IdealExtractor}
				if a, b := Retime(tr, ro), Retime(got, ro); a != b {
					t.Fatalf("retime diverges after round trip:\n %+v\n %+v", a, b)
				}
			}
		})
	}
}

// fuzzTrace builds a structurally valid trace directly: random ledgers,
// random per-task scalars, and contiguous ascending item windows — the
// invariant RecordTasks guarantees and validateWindows re-checks.
func fuzzTrace(rng *rand.Rand) *Trace {
	tr := &Trace{
		Name:         "fuzz",
		hierarchical: rng.Intn(2) == 1,
		maccs:        rng.Int63(),
		intersectOps: rng.Int63(),
		tasks:        rng.Intn(1000),
		emptyTasks:   rng.Intn(1000),
		overflows:    rng.Intn(10),
		inputTraffic: rng.Int63(),
	}
	tr.traffic.A, tr.traffic.B, tr.traffic.Z = rng.Int63(), rng.Int63(), rng.Int63()
	nTasks := rng.Intn(20)
	for i := 0; i < nTasks; i++ {
		tt := traceTask{
			bytes:        rng.Int63n(1 << 40),
			scanTiles:    rng.Int63n(1 << 30),
			probes:       rng.Intn(1 << 20),
			rebuiltTiles: rng.Int63n(1 << 30),
			rowsLo:       len(tr.rows), rowsHi: len(tr.rows),
			subsLo: len(tr.subs), subsHi: len(tr.subs),
			extsLo: len(tr.exts), extsHi: len(tr.exts),
			distsLo: len(tr.dists), distsHi: len(tr.dists),
		}
		if tr.hierarchical {
			for n := rng.Intn(5); n > 0; n-- {
				tr.subs = append(tr.subs, rowCost{scanned: rng.Int63(), maccs: rng.Int63()})
			}
			for n := rng.Intn(4); n > 0; n-- {
				tr.exts = append(tr.exts, rng.Int63())
			}
			for n := rng.Intn(4); n > 0; n-- {
				tr.dists = append(tr.dists, distEvent{footprint: rng.Int63(), multicast: rng.Intn(2) == 1})
			}
			tt.subsHi, tt.extsHi, tt.distsHi = len(tr.subs), len(tr.exts), len(tr.dists)
		} else {
			for n := rng.Intn(6); n > 0; n-- {
				tr.rows = append(tr.rows, rowCost{scanned: rng.Int63(), maccs: rng.Int63()})
			}
			tt.rowsHi = len(tr.rows)
		}
		tr.taskRecs = append(tr.taskRecs, tt)
	}
	return tr
}

func TestTraceBinaryFuzzedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for it := 0; it < 40; it++ {
		traceRoundTrip(t, fuzzTrace(rng))
	}
}

// TestTraceBinaryLargeRoundTrip pins decoding of multi-MiB images in
// which every section is large: 12000 96-byte task records (over 1 MiB)
// and item sections of over 1 MiB each.
func TestTraceBinaryLargeRoundTrip(t *testing.T) {
	const nTasks = 12000
	flat := &Trace{Name: "large-flat", tasks: nTasks}
	flat.taskRecs = make([]traceTask, nTasks)
	// 6 rows per task ⇒ 72000 16-byte rows, over 1 MiB.
	flat.rows = make([]rowCost, 6*nTasks)
	for i := range flat.rows {
		flat.rows[i] = rowCost{scanned: int64(i), maccs: int64(2 * i)}
	}
	for i := range flat.taskRecs {
		flat.taskRecs[i] = traceTask{
			bytes: int64(i), scanTiles: int64(i % 7), probes: i % 11, rebuiltTiles: int64(i % 3),
			rowsLo: 6 * i, rowsHi: 6 * (i + 1),
		}
	}
	traceRoundTrip(t, flat)

	hier := &Trace{Name: "large-hier", hierarchical: true, tasks: nTasks}
	hier.taskRecs = make([]traceTask, nTasks)
	hier.subs = make([]rowCost, 6*nTasks)
	hier.exts = make([]int64, 12*nTasks) // 144000 × 8 bytes > 1 MiB
	hier.dists = make([]distEvent, 6*nTasks)
	for i := range hier.subs {
		hier.subs[i] = rowCost{scanned: int64(i), maccs: int64(3 * i)}
		hier.dists[i] = distEvent{footprint: int64(i), multicast: i%2 == 1}
	}
	for i := range hier.exts {
		hier.exts[i] = int64(i)
	}
	for i := range hier.taskRecs {
		hier.taskRecs[i] = traceTask{
			bytes:  int64(i),
			subsLo: 6 * i, subsHi: 6 * (i + 1),
			extsLo: 12 * i, extsHi: 12 * (i + 1),
			distsLo: 6 * i, distsHi: 6 * (i + 1),
		}
	}
	traceRoundTrip(t, hier)
}

// TestTraceBinaryWideBoundary pins extreme field values: int64 extrema in
// every ledger and per-item slot survive the round trip exactly.
func TestTraceBinaryWideBoundary(t *testing.T) {
	tr := &Trace{
		Name:         "boundary",
		maccs:        math.MaxInt64,
		intersectOps: math.MinInt64,
		tasks:        math.MaxInt32,
		emptyTasks:   0,
		overflows:    1,
		inputTraffic: math.MaxInt64,
	}
	tr.traffic.A, tr.traffic.B, tr.traffic.Z = math.MaxInt64, -1, math.MinInt64
	tr.taskRecs = []traceTask{{
		bytes: math.MaxInt64, scanTiles: math.MaxInt64, probes: math.MaxInt32, rebuiltTiles: math.MaxInt64,
		rowsLo: 0, rowsHi: 1,
	}}
	tr.rows = []rowCost{{scanned: math.MaxInt64, maccs: math.MinInt64}}
	traceRoundTrip(t, tr)

	empty := &Trace{Name: ""}
	traceRoundTrip(t, empty)
}

func TestTraceBinaryTruncated(t *testing.T) {
	tr := recordedFixtures(t)["hierarchical"]
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) / 2, traceHeaderSize + traceTableSize + 3, traceHeaderSize + 3, 10, 0} {
		decodeEachTrace(full[:cut], func(via string, _ *Trace, err error) {
			if err == nil {
				t.Fatalf("%s decode accepted an image truncated to %d of %d bytes", via, cut, len(full))
			}
		})
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"trunc.drtt":  full[:len(full)-8],
		"padded.drtt": append(append([]byte{}, full...), 0, 0, 0, 0, 0, 0, 0, 0),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if v, err := OpenTrace(path); err == nil {
			v.Close()
			t.Fatalf("OpenTrace accepted %s (%d bytes, want %d)", name, len(data), len(full))
		}
	}
}

func TestTraceBinaryRejectsGarbage(t *testing.T) {
	garbage := []byte("not a drtt trace at all, just some prose that is long enough to cover the header and table sections of the format, which together span 176 bytes of the image........")
	decodeEachTrace(garbage, func(via string, _ *Trace, err error) {
		if err == nil {
			t.Fatalf("%s decode accepted garbage", via)
		}
	})
	// Wrong version.
	tr := &Trace{Name: "v"}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	bad[4] = 99
	decodeEachTrace(bad, func(via string, _ *Trace, err error) {
		if err == nil {
			t.Fatalf("%s decode accepted a future format version", via)
		}
	})
}

// TestTraceBinaryHugeCountIsError pins that header counts are checked
// against the image's size before anything is sized from them: a 208-byte
// image whose header and section table agree on 2^36 tasks is a
// truncation error, not a multi-terabyte allocation. A hierarchical header
// claiming 2^56 tasks, sub-tasks, extractions and distributions passes the
// header check but implies more bytes than int64 holds: every path must
// reject it with an error, not panic sizing the image.
func TestTraceBinaryHugeCountIsError(t *testing.T) {
	const nTasks = 1 << 36
	var buf bytes.Buffer
	var hdr [traceHeaderSize]byte
	copy(hdr[0:4], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], TraceFormatVersion)
	binary.LittleEndian.PutUint64(hdr[16:24], nTasks)
	buf.Write(hdr[:])
	for _, s := range traceSectionTable(0, nTasks, 0, 0, 0, 0) {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(s[0]))
		binary.LittleEndian.PutUint64(b[8:], uint64(s[1]))
		buf.Write(b[:])
	}
	buf.Write(make([]byte, traceLedgerSize))

	var over [traceHeaderSize]byte
	copy(over[0:4], traceMagic)
	binary.LittleEndian.PutUint32(over[4:8], TraceFormatVersion)
	binary.LittleEndian.PutUint32(over[8:12], traceFlagHier)
	for _, at := range []int{16, 32, 40, 48} { // nTasks, nSubs, nExts, nDists
		binary.LittleEndian.PutUint64(over[at:], 1<<56)
	}
	if _, err := decodeTraceHeader(over[:]); err != nil {
		t.Fatalf("the header check rejects the overflowing header itself: %v", err)
	}
	dir := t.TempDir()
	for name, img := range map[string][]byte{
		"no-task-section": buf.Bytes(),
		"size-overflow":   append(over[:], make([]byte, 4<<10)...),
	} {
		decodeEachTrace(img, func(via string, _ *Trace, err error) {
			if err == nil {
				t.Fatalf("%s: %s decode accepted the image", name, via)
			}
		})
		path := filepath.Join(dir, name+".drtt")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if v, err := OpenTrace(path); err == nil {
			v.Close()
			t.Fatalf("%s: OpenTrace accepted the file", name)
		}
	}
}

// TestTraceBinaryRejectsScrambledWindows pins the structural validation: an
// image whose sizes all agree but whose task windows break the capture
// invariant is rejected, not retimed into garbage.
func TestTraceBinaryRejectsScrambledWindows(t *testing.T) {
	tr := &Trace{Name: "scrambled"}
	tr.taskRecs = []traceTask{
		{rowsLo: 0, rowsHi: 2},
		{rowsLo: 1, rowsHi: 3}, // overlaps the first task's window
	}
	tr.rows = []rowCost{{1, 1}, {2, 2}, {3, 3}}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	decodeEachTrace(buf.Bytes(), func(via string, _ *Trace, err error) {
		if err == nil {
			t.Fatalf("%s decode accepted overlapping task windows", via)
		}
	})
	// Windows that undercover the stored items are equally invalid.
	tr2 := &Trace{Name: "short"}
	tr2.taskRecs = []traceTask{{rowsLo: 0, rowsHi: 1}}
	tr2.rows = []rowCost{{1, 1}, {2, 2}}
	buf.Reset()
	if err := tr2.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	decodeEachTrace(buf.Bytes(), func(via string, _ *Trace, err error) {
		if err == nil {
			t.Fatalf("%s decode accepted windows that undercover the item array", via)
		}
	})
	// A hierarchical flag with flat row items is inconsistent.
	tr3 := &Trace{Name: "mixed", hierarchical: true}
	tr3.taskRecs = []traceTask{{rowsLo: 0, rowsHi: 1}}
	tr3.rows = []rowCost{{1, 1}}
	buf.Reset()
	if err := tr3.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	decodeEachTrace(buf.Bytes(), func(via string, _ *Trace, err error) {
		if err == nil {
			t.Fatalf("%s decode accepted a hierarchical trace carrying flat rows", via)
		}
	})
}

// TestTraceBinaryGoldenHeader pins the first header+table bytes of a fixed
// tiny trace, so any format drift (field order, widths, alignment) fails
// loudly here and demands a TraceFormatVersion bump.
func TestTraceBinaryGoldenHeader(t *testing.T) {
	tr := &Trace{Name: "golden"}
	tr.traffic.A, tr.traffic.B, tr.traffic.Z = 1, 2, 3
	tr.maccs, tr.intersectOps = 4, 5
	tr.tasks, tr.emptyTasks, tr.overflows = 1, 0, 0
	tr.inputTraffic = 6
	tr.taskRecs = []traceTask{{bytes: 7, scanTiles: 8, probes: 9, rebuiltTiles: 10, rowsLo: 0, rowsHi: 2}}
	tr.rows = []rowCost{{11, 12}, {13, 14}}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	const goldenPrefix = "" +
		// magic "DRTT", version 1, flags 0, nameLen 6
		"4452545401000000" + "0000000006000000" +
		// counts: 1 task, 2 rows, 0 subs, 0 exts, 0 dists; reserved
		"0100000000000000" + "0200000000000000" +
		"0000000000000000" + "0000000000000000" +
		"0000000000000000" + "0000000000000000" +
		// section table: name(176,8) ledger(184,72) tasks(256,96)
		// rows(352,32) subs(384,0) exts(384,0) dists(384,0)
		"b000000000000000" + "0800000000000000" +
		"b800000000000000" + "4800000000000000" +
		"0001000000000000" + "6000000000000000" +
		"6001000000000000" + "2000000000000000" +
		"8001000000000000" + "0000000000000000" +
		"8001000000000000" + "0000000000000000" +
		"8001000000000000" + "0000000000000000" +
		// name "golden" + 2 pad bytes
		"676f6c64656e0000"
	want, err := hex.DecodeString(goldenPrefix)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()[:len(want)]
	if !bytes.Equal(got, want) {
		t.Fatalf("golden header drifted:\n got %s\nwant %s\nbump TraceFormatVersion for any intentional layout change",
			hex.EncodeToString(got), goldenPrefix)
	}
	if int64(buf.Len()) != tr.TraceBinarySize() {
		t.Fatalf("golden image is %d bytes, want %d", buf.Len(), tr.TraceBinarySize())
	}
}

// TestTraceBinaryDecodeAllocs pins that decoding allocates only the file
// image and the trace's own arrays, not per-record or per-field
// temporaries.
func TestTraceBinaryDecodeAllocs(t *testing.T) {
	tr := recordedFixtures(t)["flat"]
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := decodeTrace(data, false); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := decodeTrace(data, false); err != nil {
			t.Fatal(err)
		}
	})
	// Trace struct, 2 non-nil slices, name string — a handful, well
	// within 16; the point is that it does not scale with the item count
	// (thousands here).
	if allocs > 16 {
		t.Fatalf("decodeTrace allocates %.0f objects/run, want ≤ 16", allocs)
	}
}
