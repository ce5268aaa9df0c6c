package kernels

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"drt/internal/par"
	"drt/internal/tensor"
)

// CountProductTiles counts the structure of Z = A·B in mt×mt micro tiles
// with no values, and returns the product's effectual MACCs. For every
// band of mt rows of Z (one grid row of its micro-tile grid), in order,
// emit receives the band's occupied micro-tile columns, ascending, and each
// tile's count of distinct output points; the slices are valid only during
// the call, and calls never overlap, even with several workers. That is
// all workload preparation needs of the reference product, so Z itself is
// never built.
//
// Per output row, each column reached through the row's B fibers is
// stamped with the row's id, so a column's first visit is recognised in
// one load and counted into its micro tile; nothing is multiplied and no
// output fiber is kept. An output point is counted when some k reaches it
// — the structural product, which equals nnz(Z) whenever no sum cancels to
// exactly zero.
//
// The bands are split into blocks over workers goroutines (values < 1
// select one per CPU), each with its own stamp scratch; blocks are emitted
// in band order, and the counts are integers, so the result is identical
// at any worker count.
func CountProductTiles(a, b *tensor.CSR, mt, workers int, emit func(cols []int, nnz []int64)) int64 {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("kernels: spmspm shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if mt < 1 {
		panic(fmt.Sprintf("kernels: micro tile %d", mt))
	}
	bands := (a.Rows + mt - 1) / mt
	workers = min(par.Workers(workers), bands)
	if workers <= 1 {
		c := newTileCounter(a, b, mt)
		for gr := range bands {
			emit(c.band(gr))
		}
		return c.maccs
	}
	// Over-decompose so an unlucky dense block doesn't serialize the tail.
	// Workers claim blocks in index order; a finished block waits for its
	// turn, so emission follows band order while each worker reuses one
	// block buffer.
	nb := min(workers*4, bands)
	var (
		claim atomic.Int64
		mu    sync.Mutex
		turn  = sync.NewCond(&mu)
		next  int // the block that emits next
		maccs int64
		wg    sync.WaitGroup
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newTileCounter(a, b, mt)
			blk := tileBlock{ptr: make([]int, 0, bands/nb+2)}
			for bi := int(claim.Add(1) - 1); bi < nb; bi = int(claim.Add(1) - 1) {
				blk.reset()
				for gr := bi * bands / nb; gr < (bi+1)*bands/nb; gr++ {
					blk.add(c.band(gr))
				}
				mu.Lock()
				for next != bi {
					turn.Wait()
				}
				mu.Unlock()
				for p := range len(blk.ptr) - 1 {
					lo, hi := blk.ptr[p], blk.ptr[p+1]
					emit(blk.cols[lo:hi], blk.nnz[lo:hi])
				}
				mu.Lock()
				next++
				turn.Broadcast()
				mu.Unlock()
			}
			mu.Lock()
			maccs += c.maccs
			mu.Unlock()
		}()
	}
	wg.Wait()
	return maccs
}

// tileCounter is one worker's scratch for CountProductTiles.
type tileCounter struct {
	a, b *tensor.CSR
	mt   int
	// shift is log2(mt) when mt is a power of two (every sweep's micro
	// tile is), turning the per-point division into a shift; else -1.
	shift int
	maccs int64
	// stamp[j] is 1 + the last row that reached column j. Rows are
	// globally unique, so a stamp never needs clearing. fresh collects the
	// current row's distinct columns; it has one slot past b.Cols, because
	// every visit writes a slot before knowing whether it is new.
	stamp, fresh []int
	// cnt[t] is the current band's output points in tile column t, zero
	// between bands; touched lists the columns with cnt > 0 and nnz their
	// counts once the band is sorted. nnz has room for every tile column,
	// touched for one more, as fresh does for columns.
	cnt     []int64
	touched []int
	nnz     []int64
}

func newTileCounter(a, b *tensor.CSR, mt int) *tileCounter {
	shift := -1
	if mt&(mt-1) == 0 {
		shift = bits.TrailingZeros(uint(mt))
	}
	gc := (b.Cols + mt - 1) / mt
	return &tileCounter{
		a: a, b: b, mt: mt, shift: shift,
		stamp:   make([]int, b.Cols),
		fresh:   make([]int, b.Cols+1),
		cnt:     make([]int64, gc),
		touched: make([]int, 0, gc+1),
		nnz:     make([]int64, 0, gc),
	}
}

// band counts band gr and returns its occupied tile columns, ascending,
// and their counts; both alias the scratch until the next call.
func (c *tileCounter) band(gr int) ([]int, []int64) {
	a, b, mt, shift := c.a, c.b, c.mt, c.shift
	stamp, fresh, cnt, touched := c.stamp, c.fresh, c.cnt, c.touched[:cap(c.touched)]
	m := 0
	for i := gr * mt; i < min((gr+1)*mt, a.Rows); i++ {
		row := i + 1
		n := 0
		for _, k := range a.Idx[a.Ptr[i]:a.Ptr[i+1]] {
			js := b.Idx[b.Ptr[k]:b.Ptr[k+1]]
			c.maccs += int64(len(js))
			for _, j := range js {
				// Branch-free compaction of the row's first visits: every
				// column is written at n, and n advances only past new ones.
				inc := 0
				if stamp[j] != row {
					inc = 1
				}
				stamp[j] = row
				fresh[n] = j
				n += inc
			}
		}
		for _, j := range fresh[:n] {
			var t int
			if shift >= 0 {
				t = j >> shift
			} else {
				t = j / mt
			}
			// The same compaction one level up: the band's first points
			// in each tile column.
			inc := 0
			if cnt[t] == 0 {
				inc = 1
			}
			cnt[t]++
			touched[m] = t
			m += inc
		}
	}
	touched = touched[:m]
	slices.Sort(touched)
	nnz := c.nnz[:0]
	for _, t := range touched {
		nnz = append(nnz, cnt[t])
		cnt[t] = 0
	}
	c.touched, c.nnz = touched, nnz
	return touched, nnz
}

// tileBlock holds one block's bands until its turn to emit: band p's tiles
// are cols[ptr[p]:ptr[p+1]] with counts nnz[ptr[p]:ptr[p+1]].
type tileBlock struct {
	ptr  []int
	cols []int
	nnz  []int64
}

func (k *tileBlock) reset() {
	k.ptr, k.cols, k.nnz = append(k.ptr[:0], 0), k.cols[:0], k.nnz[:0]
}

func (k *tileBlock) add(cols []int, nnz []int64) {
	// Double the capacity when it runs out: a block buffer grows a
	// logarithmic number of times even past append's 1.25x regime.
	if n := len(k.cols) + len(cols); n > cap(k.cols) {
		k.cols = slices.Grow(k.cols, max(n, 2*cap(k.cols))-len(k.cols))
		k.nnz = slices.Grow(k.nnz, cap(k.cols)-len(k.nnz))
	}
	k.cols = append(k.cols, cols...)
	k.nnz = append(k.nnz, nnz...)
	k.ptr = append(k.ptr, len(k.cols))
}
