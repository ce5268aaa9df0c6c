package kernels

import (
	"math"

	"drt/internal/obs"
	"drt/internal/tensor"
)

// Range is a half-open coordinate interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of coordinates in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Contains reports whether c lies in the range.
func (r Range) Contains(c int) bool { return c >= r.Lo && c < r.Hi }

// RowWork records the effectual work one output row contributes within a
// task; the accelerator models round-robin rows across PEs and take the
// maximum per-PE sum, so per-row granularity is what load balance needs.
// The engines read Row, MACCs and AElems only.
type RowWork struct {
	Row    int
	MACCs  int64
	AElems int // A-row elements visited (intersection stream length)
	OutNNZ int // distinct output columns touched; 0 from RestrictedWork
}

// TaskResult holds the exact outcome of one Einsum task (Sec. 3,
// "Einsum task"): the partial-output points produced within the task's
// coordinate ranges and the effectual work performed. RestrictedWork
// leaves OutputNNZ at 0 for its caller to fill.
type TaskResult struct {
	MACCs     int64
	ScannedA  int64 // total A elements visited (drives intersection cycles)
	OutputNNZ int64 // distinct (i,j) partial-output points touched
	Rows      []RowWork
}

// RestrictedGustavson counts the partial product of A·B limited to the
// task ranges i∈iR, k∈kR, j∈jR (Equation 2 of the paper), returning exact
// per-task MACC and partial-output counts. The union over a task partition
// of the iteration space equals the full kernel, which the simulators rely
// on for exact traffic accounting. Every number it reports is a count, so
// it multiplies nothing: per output row, a generation stamp per column and
// a counter give the distinct output points. Once a row has touched every
// column of the J window, its remaining B segments add MACCs without
// visiting their columns.
//
// The spa scratch must have width ≥ b.Cols and is reused across calls;
// pass nil to allocate a fresh one. The returned Rows slice aliases the
// scratch and is valid only until the next call with the same spa — the
// simulator task loops consume it before issuing the next task, which
// keeps the whole stream allocation-free (pinned by TestRestrictedAllocs).
// The scratch remembers b's row ranges across calls (see SPA), so b must
// not be modified while a scratch that has seen it is reused.
func RestrictedGustavson(a, b *tensor.CSR, iR, kR, jR Range, spa *SPA) TaskResult {
	if spa == nil {
		spa = NewSPA(b.Cols)
	}
	var res TaskResult
	rows := spa.rows[:0]
	kGen, kLo, kHi := spa.rangeMemo(b, kR, jR)
	kCur, stamp := spa.kCur, spa.gen
	// A row touches at most the window's width of distinct columns.
	width := min(jR.Hi, b.Cols) - max(jR.Lo, 0)
	for i := max(iR.Lo, 0); i < iR.Hi && i < a.Rows; i++ {
		lo, hi := a.RowRange(i, kR.Lo, kR.Hi)
		if lo == hi {
			continue
		}
		spa.cur++
		cur := spa.cur
		var rowMACCs int64
		n := 0
		for _, k := range a.Idx[lo:hi] {
			off := k - kR.Lo
			var blo, bhi int
			if kGen[off] == kCur {
				blo, bhi = kLo[off], kHi[off]
			} else {
				blo, bhi = b.RowRange(k, jR.Lo, jR.Hi)
				kGen[off], kLo[off], kHi[off] = kCur, blo, bhi
			}
			rowMACCs += int64(bhi - blo)
			if n == width {
				continue // saturated: no segment adds a new column
			}
			for _, j := range b.Idx[blo:bhi] {
				if stamp[j] != cur {
					stamp[j] = cur
					n++
				}
			}
		}
		res.MACCs += rowMACCs
		res.ScannedA += int64(hi - lo)
		if n > 0 || rowMACCs > 0 {
			res.OutputNNZ += int64(n)
			rows = append(rows, RowWork{Row: i, MACCs: rowMACCs, AElems: hi - lo, OutNNZ: n})
		}
	}
	spa.rows = rows
	res.Rows = rows
	return res
}

// RestrictedWork is RestrictedGustavson without the column union: the same
// MACCs, ScannedA and per-row (Row, MACCs, AElems), with OutputNNZ and
// every row's OutNNZ left at 0. A caller that knows the task's output
// count another way skips the stamp loop, so the pass costs one B-range
// lookup per A element, memoized per k in the scratch RestrictedGustavson
// uses (the two share one memo), instead of one stamp per MACC. spa must
// not be nil; otherwise the spa and Rows contracts are
// RestrictedGustavson's.
func RestrictedWork(a, b *tensor.CSR, iR, kR, jR Range, spa *SPA) TaskResult {
	var res TaskResult
	rows := spa.rows[:0]
	kGen, kLo, kHi := spa.rangeMemo(b, kR, jR)
	kCur := spa.kCur
	for i := max(iR.Lo, 0); i < iR.Hi && i < a.Rows; i++ {
		lo, hi := a.RowRange(i, kR.Lo, kR.Hi)
		if lo == hi {
			continue
		}
		var rowMACCs int64
		for _, k := range a.Idx[lo:hi] {
			off := k - kR.Lo
			if kGen[off] != kCur {
				kLo[off], kHi[off] = b.RowRange(k, jR.Lo, jR.Hi)
				kGen[off] = kCur
			}
			rowMACCs += int64(kHi[off] - kLo[off])
		}
		res.MACCs += rowMACCs
		res.ScannedA += int64(hi - lo)
		if rowMACCs > 0 {
			rows = append(rows, RowWork{Row: i, MACCs: rowMACCs, AElems: hi - lo})
		}
	}
	spa.rows = rows
	res.Rows = rows
	return res
}

// rangeMemo returns the per-k memo of b's row ranges inside jR for the
// contracted window kR: entry k-kR.Lo is valid when its stamp equals
// s.kCur. Every row of a task probes its k columns against the same
// j-window, and within a tile the rows hit largely the same columns, so
// the second and later probes of a k become one scratch load instead of
// two binary searches. The entries survive into the next call when it
// names the same b and both windows — consecutive tasks of an I sweep
// under J→K→I — and otherwise a new stamp makes them unreadable without
// re-zeroing.
func (s *SPA) rangeMemo(b *tensor.CSR, kR, jR Range) (gen, lo, hi []int) {
	kw := max(kR.Hi-kR.Lo, 0)
	if s.kB != b || s.kR != kR || s.kJ != jR {
		s.kB, s.kR, s.kJ = b, kR, jR
		s.kCur++
		if cap(s.kGen) < kw {
			s.kGen = make([]int, kw)
			s.kLo = make([]int, kw)
			s.kHi = make([]int, kw)
			s.kCur = 1
		}
	}
	return s.kGen[:kw], s.kLo[:kw], s.kHi[:kw]
}

// SlabCounts prices the J sweeps of one outer task's resident A slabs.
// Fig. 5's K→I→J PE dataflow keeps A's sub-tile (iR, kR) resident while J
// sweeps the outer task's J window, and the engine reads only two numbers
// per sub-task: its MACCs and its scanned-A count. Window binds the
// scratch to one outer task, and Count fills both for every tile-aligned
// J sub-range of the window at once, so pricing a sub-task is two loads
// instead of a RestrictedGustavson call.
//
// Two memos keep a slab pass close to the A elements it counts. Each row
// of the I window keeps a cursor past the elements earlier slabs consumed;
// under ascending K steps a row resumes there, and a row with no element
// in the slab's K range costs one compare. B's (J micro tile, count) runs
// inside the window are built per contracted coordinate on first use and
// kept while B and the K and J windows stay the same — under the outer
// J→K→I order, every outer task of an I sweep — so each B row is binned
// once however many slabs hit it.
type SlabCounts struct {
	// ScannedA is the number of A elements in the slab. Every J sub-range
	// walks all of them, so it is RestrictedGustavson's ScannedA for any
	// jR inside the window.
	ScannedA int64
	// cum[t] is the slab's MACCs over the J window's first t micro tiles.
	cum []int64
	a   *tensor.CSR
	// cur[i-iLo] is row i's cursor, for the rows of the I window.
	cur []rowCursor
	iLo int
	// b, kW, jW and mt key the B memo: kc's entries stamped gen are
	// valid, and runs is their arena, emptied when the key changes.
	b      *tensor.CSR
	kW, jW Range
	mt     int
	gen    uint32
	kc     []kCol
	runs   []tileRun
	// ks lists the columns the current slab hits; Count leaves every
	// kCol.mult back at zero.
	ks []int
}

// rowCursor is an A row's position in the K sweep: pos is its first
// element not yet consumed, prev the column before pos (-1 if none) and
// next the column at pos (math.MaxInt if none). The row is sorted, so a
// slab whose K range starts above prev has no element before pos.
type rowCursor struct{ pos, prev, next int }

// at moves c to position p of row i of a.
func (c *rowCursor) at(a *tensor.CSR, i, p int) {
	c.pos, c.prev, c.next = p, -1, math.MaxInt
	if p > a.Ptr[i] {
		c.prev = a.Idx[p-1]
	}
	if p < a.Ptr[i+1] {
		c.next = a.Idx[p]
	}
}

// kCol is a contracted coordinate k's state: mult counts the slab's A
// elements in column k, and when gen is the memo's, B row k's runs inside
// the J window are runs[lo:hi]. kc spans the whole K window and the
// engine keeps the scratch live across runs, so the fields are 32-bit: a
// slab has fewer than 2³¹ rows and a window's B tile fewer than 2³¹
// elements.
type kCol struct {
	gen          uint32
	mult, lo, hi int32
}

// tileRun is n consecutive elements of a B row in the J window's micro
// tile t.
type tileRun struct{ t, n int32 }

// Window binds s to one outer task: A's rows iW, the contracted window kW
// and the J window jW, whose bounds must be multiples of the micro tile
// edge mt (the engines' ranges are grid coordinates × micro tile). Every
// row's cursor starts at its first element inside kW. The B memo survives
// when b, kW, jW and mt are those of the previous window, so b must not be
// modified while a scratch that has seen it is reused.
func (s *SlabCounts) Window(a, b *tensor.CSR, iW, kW, jW Range, mt int) {
	if b != s.b || kW != s.kW || jW != s.jW || mt != s.mt {
		s.b, s.kW, s.jW, s.mt = b, kW, jW, mt
		if s.gen++; s.gen == 0 {
			// The stamp wrapped: clear every entry it could match.
			clear(s.kc[:cap(s.kc)])
			s.gen = 1
		}
		s.runs = s.runs[:0]
		kw := max(kW.Hi-kW.Lo, 0)
		if cap(s.kc) < kw {
			s.kc = make([]kCol, kw)
		}
		s.kc = s.kc[:kw]
	}
	if nb := max(jW.Hi-jW.Lo, 0) / mt; cap(s.cum) < nb+1 {
		s.cum = make([]int64, nb+1)
	} else {
		s.cum = s.cum[:nb+1]
	}
	s.a, s.iLo = a, max(iW.Lo, 0)
	n := max(min(iW.Hi, a.Rows)-s.iLo, 0)
	if cap(s.cur) < n {
		s.cur = make([]rowCursor, n)
	}
	s.cur = s.cur[:n]
	for r := range s.cur {
		i := s.iLo + r
		p, _ := a.RowRange(i, kW.Lo, kW.Hi)
		s.cur[r].at(a, i, p)
	}
}

// Count prices the J sweep of the A slab (iR, kR) over the window; iR and
// kR must lie inside the window's I and K ranges. Each row of the slab
// resumes at its cursor when kR starts above the column before it, and
// otherwise (a repeated slab or a K step out of order) finds its range by
// binary search, so the counts do not depend on the call order. The pass
// counts the slab's elements per contracted coordinate k, then adds each
// hit k's count times B row k's memoized runs to the micro tiles they
// fall in, binning B row k on its first use. The cost is nnz(A[iR, kR])
// plus one compare per row with no element in kR, plus the hit k's runs
// (at most the slab's MACCs over the window), plus one pass over the
// window's micro tiles; the call allocates nothing once s's scratch has
// grown.
func (s *SlabCounts) Count(iR, kR Range) {
	a, ks := s.a, s.ks[:0]
	var scanned int64
	for i := max(iR.Lo, s.iLo); i < iR.Hi && i < a.Rows; i++ {
		c := &s.cur[i-s.iLo]
		p := c.pos
		if c.prev >= kR.Lo {
			p, _ = a.RowRange(i, kR.Lo, kR.Hi)
		} else if c.next >= kR.Hi {
			continue
		}
		end := a.Ptr[i+1]
		for p < end && a.Idx[p] < kR.Lo {
			p++ // elements of K steps this row was not counted in
		}
		lo := p
		for ; p < end && a.Idx[p] < kR.Hi; p++ {
			e := &s.kc[a.Idx[p]-s.kW.Lo]
			if e.mult == 0 {
				ks = append(ks, a.Idx[p])
			}
			e.mult++
		}
		scanned += int64(p - lo)
		c.at(a, i, p)
	}
	s.ScannedA, s.ks = scanned, ks
	cum := s.cum
	clear(cum)
	for _, k := range ks {
		e := &s.kc[k-s.kW.Lo]
		if e.gen != s.gen {
			e.gen, e.lo = s.gen, int32(len(s.runs))
			s.bin(k)
			e.hi = int32(len(s.runs))
		}
		m := int64(e.mult)
		e.mult = 0
		for _, r := range s.runs[e.lo:e.hi] {
			cum[r.t+1] += m * int64(r.n)
		}
	}
	for t := 1; t < len(cum); t++ {
		cum[t] += cum[t-1]
	}
}

// bin appends B row k's runs inside the J window to the memo's arena.
// B's row is sorted, so each micro tile's columns are one run: one
// division per run, not per element.
func (s *SlabCounts) bin(k int) {
	b, jLo, mt := s.b, s.jW.Lo, s.mt
	lo, hi := b.RowRange(k, jLo, s.jW.Hi)
	for q := lo; q < hi; {
		t := (b.Idx[q] - jLo) / mt
		end := jLo + (t+1)*mt
		r := q + 1
		for r < hi && b.Idx[r] < end {
			r++
		}
		s.runs = append(s.runs, tileRun{t: int32(t), n: int32(r - q)})
		q = r
	}
}

// Release drops s's references to its operands and keeps its buffers, so
// a pooled scratch does not hold a finished run's matrices alive; the next
// Window starts a fresh B memo.
func (s *SlabCounts) Release() { s.a, s.b = nil, nil }

// MACCs returns the slab's MACCs over j ∈ jR, which must be a tile-aligned
// sub-range of the window. It equals RestrictedGustavson's MACCs over
// (iR, kR, jR) for the slab Count last priced.
func (s *SlabCounts) MACCs(jR Range) int64 {
	return s.cum[(jR.Hi-s.jW.Lo)/s.mt] - s.cum[(jR.Lo-s.jW.Lo)/s.mt]
}

// Record publishes the task's effectual-work distribution into the
// recorder's histograms: per-task MACCs, intersection stream length,
// partial-output points and active rows. rec may be nil; the call is
// allocation-free on the no-op path.
func (r *TaskResult) Record(rec obs.Recorder) {
	if rec == nil {
		return
	}
	rec.Observe("kernel.task_maccs", float64(r.MACCs))
	rec.Observe("kernel.task_scanned_a", float64(r.ScannedA))
	rec.Observe("kernel.task_output_nnz", float64(r.OutputNNZ))
	rec.Observe("kernel.task_rows", float64(len(r.Rows)))
}

// SPA is a dense sparse accumulator with generation-counter clearing,
// reused across rows and tasks to avoid re-zeroing. The value-returning
// kernels (Gustavson, the public API) accumulate columns fiber by fiber,
// each fiber sorted, so the touched-column list is a sequence of sorted
// runs; emission merges the runs instead of comparison-sorting, keeping
// the hot loops free of per-row allocations. RestrictedGustavson uses only
// the generation stamps, plus its own row-work and row-range scratch.
type SPA struct {
	acc  []float64
	gen  []int
	cur  int
	cols []int
	// runs holds the interior boundaries of the ascending runs in cols: a
	// new run starts whenever an appended column is below its predecessor.
	runs []int
	// Merge and drain scratch, grown once and reused.
	buf     []int
	bounds  []int
	bounds2 []int
	vals    []float64
	// rows is the per-task RowWork scratch of RestrictedGustavson and
	// RestrictedWork, pooled here so both share one reusable buffer.
	rows []RowWork
	// kLo/kHi memoize b.RowRange per contracted coordinate for
	// RestrictedGustavson and RestrictedWork; kGen stamps entries with
	// kCur, which is bumped whenever the key (kB, kR, kJ) — the operand B
	// and both windows — changes, so stale ranges are never read (see
	// rangeMemo).
	kLo, kHi, kGen []int
	kCur           int
	kB             *tensor.CSR
	kR, kJ         Range
}

// NewSPA returns an accumulator covering column coordinates [0, width).
func NewSPA(width int) *SPA {
	return &SPA{acc: make([]float64, width), gen: make([]int, width)}
}

// Reset begins a new accumulation epoch in O(1).
func (s *SPA) Reset() {
	s.cur++
	s.cols = s.cols[:0]
	s.runs = s.runs[:0]
}

// Add accumulates v into column j.
func (s *SPA) Add(j int, v float64) {
	if s.gen[j] != s.cur {
		s.gen[j] = s.cur
		s.acc[j] = 0
		if n := len(s.cols); n > 0 && j < s.cols[n-1] {
			s.runs = append(s.runs, n)
		}
		s.cols = append(s.cols, j)
	}
	s.acc[j] += v
}

// Value returns the accumulated value of column j this epoch (0 when the
// column was not touched).
func (s *SPA) Value(j int) float64 {
	if s.gen[j] != s.cur {
		return 0
	}
	return s.acc[j]
}

// Touched returns the number of distinct columns accumulated this epoch.
func (s *SPA) Touched() int { return len(s.cols) }

// SortedCols returns the distinct columns touched this epoch in ascending
// order by merging the accumulation's sorted runs pairwise — O(n·log runs)
// with no comparison sort and no allocation once the scratch has warmed
// up. The returned slice aliases the accumulator and is valid until the
// next Reset or Add.
func (s *SPA) SortedCols() []int {
	if len(s.runs) == 0 {
		return s.cols // single ascending run
	}
	n := len(s.cols)
	if cap(s.buf) < n {
		s.buf = make([]int, n)
	}
	src, dst := s.cols, s.buf[:n]
	b := append(s.bounds[:0], 0)
	b = append(b, s.runs...)
	b = append(b, n)
	nb := s.bounds2[:0]
	for len(b) > 2 {
		nb = nb[:0]
		nb = append(nb, 0)
		i := 0
		for ; i+2 < len(b); i += 2 {
			mergeInts(dst[b[i]:b[i+2]], src[b[i]:b[i+1]], src[b[i+1]:b[i+2]])
			nb = append(nb, b[i+2])
		}
		if i+1 < len(b) { // odd run out: carry it to the next round
			copy(dst[b[i]:b[i+1]], src[b[i]:b[i+1]])
			nb = append(nb, b[i+1])
		}
		src, dst = dst, src
		b, nb = nb, b
	}
	s.cols, s.buf = src, dst
	s.runs = s.runs[:0]
	s.bounds, s.bounds2 = b, nb
	return s.cols
}

// mergeInts merges two sorted, duplicate-free slices into dst
// (len(dst) == len(a)+len(b)).
func mergeInts(dst, a, b []int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// Drain returns the sorted (column, value) pairs of the current epoch.
// Both slices alias the accumulator's scratch and are valid until the next
// Reset, Add or Drain.
func (s *SPA) Drain() ([]int, []float64) {
	cols := s.SortedCols()
	if cap(s.vals) < len(cols) {
		s.vals = make([]float64, len(cols))
	}
	vals := s.vals[:len(cols)]
	for p, j := range cols {
		vals[p] = s.acc[j]
	}
	return cols, vals
}
