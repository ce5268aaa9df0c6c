package kernels

import (
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

// SlabCounts prices the J sweep of one resident A slab. Fig. 5's K→I→J
// PE dataflow keeps A's sub-tile (iR, kR) resident while J sweeps the
// outer task's J window, and the engine reads only two numbers per
// sub-task: its MACCs and its scanned-A count. CountSlab fills both for
// every tile-aligned J sub-range of the window at once, so pricing a
// sub-task is two loads instead of a RestrictedGustavson call.
type SlabCounts struct {
	// ScannedA is the number of A elements in the slab. Every J sub-range
	// walks all of them, so it is RestrictedGustavson's ScannedA for any
	// jR inside the window.
	ScannedA int64
	jLo, mt  int
	// cum[t] is the slab's MACCs over the window's first t micro tiles.
	cum []int64
	// mult[k-kR.Lo] counts the slab's A elements in column k. ks lists
	// the columns hit, so mult is back to zero at the end of every call.
	mult []int64
	ks   []int
}

// MACCs returns the slab's MACCs over j ∈ jR, which must be a tile-aligned
// sub-range of the window CountSlab priced. It equals RestrictedGustavson's
// MACCs over (iR, kR, jR).
func (s *SlabCounts) MACCs(jR Range) int64 {
	return s.cum[(jR.Hi-s.jLo)/s.mt] - s.cum[(jR.Lo-s.jLo)/s.mt]
}

// CountSlab prices the J sweep of the A slab (iR, kR) over the window jR
// with micro tile edge mt; jR's bounds must be multiples of mt (the
// engines' ranges are grid coordinates × micro tile). One pass over
// A[iR, kR] counts the slab's elements per contracted coordinate k, and
// one pass over each hit row of B inside the window bins k's count by
// micro-tile column. The cost is nnz(A[iR, kR]), plus the hit B rows'
// window lengths (at most the slab's MACCs over the window), plus one
// pass over the window's micro tiles; the call allocates nothing once s's
// scratch has grown.
func CountSlab(a, b *tensor.CSR, iR, kR, jR Range, mt int, s *SlabCounts) {
	s.ScannedA = 0
	s.jLo, s.mt = jR.Lo, mt
	nb := max(jR.Hi-jR.Lo, 0) / mt
	if cap(s.cum) < nb+1 {
		s.cum = make([]int64, nb+1)
	}
	cum := s.cum[:nb+1]
	clear(cum)
	kw := max(kR.Hi-kR.Lo, 0)
	if cap(s.mult) < kw {
		s.mult = make([]int64, kw)
	}
	mult, ks := s.mult[:kw], s.ks[:0]
	for i := max(iR.Lo, 0); i < iR.Hi && i < a.Rows; i++ {
		lo, hi := a.RowRange(i, kR.Lo, kR.Hi)
		s.ScannedA += int64(hi - lo)
		for _, k := range a.Idx[lo:hi] {
			off := k - kR.Lo
			if mult[off] == 0 {
				ks = append(ks, k)
			}
			mult[off]++
		}
	}
	for _, k := range ks {
		m := mult[k-kR.Lo]
		mult[k-kR.Lo] = 0
		lo, hi := b.RowRange(k, jR.Lo, jR.Hi)
		// B's row is sorted, so each micro tile's columns are one run:
		// one division per run, not per element.
		for q := lo; q < hi; {
			t := (b.Idx[q] - jR.Lo) / mt
			end := jR.Lo + (t+1)*mt
			r := q + 1
			for r < hi && b.Idx[r] < end {
				r++
			}
			cum[t+1] += m * int64(r-q)
			q = r
		}
	}
	s.ks = ks
	for t := 1; t <= nb; t++ {
		cum[t] += cum[t-1]
	}
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
