package trrs

import (
	"sync"
	"sync/atomic"

	"rim/internal/obs/trace"
)

// PairSpec names one antenna pair for bulk matrix computation.
type PairSpec struct {
	I, J int
}

// Hermitian symmetry of the TRRS (Eq. 2/3): κ̄(Hᵢ(t), Hⱼ(t′)) =
// κ̄(Hⱼ(t′), Hᵢ(t)), because swapping the arguments conjugates the inner
// product and |·|² discards the sign of the imaginary part. In base-matrix
// coordinates that is the reflection
//
//	base_{j,i}[t][l] = base_{i,j}[t−l][−l]
//
// and it holds bit-for-bit, not just mathematically: the swapped kernel
// accumulates the same real products in the same order (a·b = b·a exactly)
// and an imaginary part of exactly opposite sign (IEEE-754 subtraction
// satisfies −(x−y) = (y−x) bitwise), whose square is identical. So
// BaseMatrices computes one matrix per unordered pair and derives the
// reversed twin by reflection, and computes self-pairs (i, i) over the
// non-negative lag half-band only — with results identical to computing
// every entry from scratch (pinned by the symmetry property suite).

// pairSource returns where pairs[k]'s matrix comes from: the first
// earlier identical pair, which it aliases (alias true); else the first
// earlier reversed pair, its twin, from which it is reflected; else -1,
// and it is swept. A self-pair is its own reverse and only ever aliases.
// The pair returned is the first of its kind, so never an alias, and a
// twin's source is never a twin: an earlier twin of the source would be
// identical to pairs[k], which would then alias it.
func pairSource(pairs []PairSpec, k int) (src int, alias bool) {
	p := pairs[k]
	src = -1
	for m, q := range pairs[:k] {
		if q == p {
			return m, true
		}
		if src < 0 && q.I == p.J && q.J == p.I {
			src = m
		}
	}
	return src, false
}

// TwinSource returns the index of the pair pairs[k] is reflected from
// when it is a reversed twin (see pairSource), or -1 when it is swept or
// aliases an identical earlier pair. A caller that keeps only swept
// matrices builds a twin with ReflectInto from the matrix at that index.
func TwinSource(pairs []PairSpec, k int) int {
	if src, alias := pairSource(pairs, k); !alias {
		return src
	}
	return -1
}

// batchItem is one unit of build work: columns [c0, c1) of rows [t0, t1)
// of m, swept by the kernel or, when src is set, reflected from src.
type batchItem struct {
	m, src *Matrix
	t0, t1 int
	c0, c1 int
}

// interleave appends the per-pair segments work[seg[k]:seg[k+1]] to order
// position-major: the first item of every segment, pair by pair, then the
// second, and so on. When each segment walks its pair's rows in time
// order and the pairs' items cover the same rows, consecutive sweeps read
// the same slot range of the CSI planes, so each time block is read from
// memory once and feeds every pair sharing it instead of once per pair.
// The schedule is a pure reordering of independent entries: the output is
// bit-for-bit unchanged.
func interleave(order, work []batchItem, seg []int) []batchItem {
	for pos, n := 0, len(order)+len(work); len(order) < n; pos++ {
		for k := 0; k+1 < len(seg); k++ {
			if s := work[seg[k]:seg[k+1]]; pos < len(s) {
				order = append(order, s[pos])
			}
		}
	}
	return order
}

// run executes a build: it sweeps items, in order on the calling goroutine
// when the engine has one worker (GOMAXPROCS 1, or an incremental engine
// view) and otherwise pulled one at a time off an atomic counter by a pool
// of workers; then, after the barrier (a reflection reads rows at other
// time indices), it reflects twins. Items write disjoint entries of
// preallocated rows, so the result does not depend on the worker count or
// the scheduling. Rows swept up to the last column are the rows computed
// from scratch (a self-pair's non-negative half band included; an
// incremental refresh's partial rows stop short of it): they count in
// rim_trrs_rows_filled_total and as A of the one trace.KindTRRSFill
// event, whose B is the caller's pair count.
func (e *Engine) run(items, twins []batchItem, pairs int) {
	filled := 0
	for _, it := range items {
		if it.c1 == 2*it.m.W+1 {
			filled += it.t1 - it.t0
		}
	}
	e.rowsFilled.Add(uint64(filled))
	if e.trc != nil {
		e.trc.Emit(trace.KindTRRSFill, e.hop, -1, int64(filled), int64(pairs))
	}
	workers := max(min(e.workers(), len(items)), 1)
	e.poolGauge.Set(float64(workers))
	if workers == 1 {
		for _, it := range items {
			e.sweep(it)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for g := 0; g < workers; g++ {
			go func() {
				defer wg.Done()
				for n := int(next.Add(1)) - 1; n < len(items); n = int(next.Add(1)) - 1 {
					e.sweep(items[n])
				}
			}()
		}
		wg.Wait()
	}
	for _, it := range twins {
		for t := it.t0; t < it.t1; t++ {
			reflectRow(it.m.Vals[t], it.src.Vals, it.m.W, t, it.c0, it.c1)
		}
	}
}

// sweep computes an item's entries with the kernel.
func (e *Engine) sweep(it batchItem) {
	for t := it.t0; t < it.t1; t++ {
		e.fillCols(it.m.Vals[t], it.m.I, it.m.J, it.m.W, t, it.c0, it.c1)
	}
}

// reflectRow derives columns [c0, c1) of row t from src by the κ̄
// reflection base[t][l] = base_src[t−l][−l] (column 2w−c holds lag −l).
// Entries whose source slot t−l falls outside the series get the same
// zero fillCols would have written. A self-pair's negative lags pass its
// own matrix as src with c1 = w: they read only columns > w.
func reflectRow(row []float64, src [][]float64, w, t, c0, c1 int) {
	for c := c0; c < c1; c++ {
		srcT := t - (c - w) // t − l
		if srcT >= 0 && srcT < len(src) {
			row[c] = src[srcT][2*w-c]
		} else {
			row[c] = 0
		}
	}
}

// newFlatMatrix allocates a slots×(2w+1) matrix with flat backing.
func (e *Engine) newFlatMatrix(i, j, w int) *Matrix {
	m := &Matrix{I: i, J: j, W: w, Rate: e.rate}
	m.Vals = make([][]float64, e.slots)
	width := 2*w + 1
	flat := make([]float64, e.slots*width)
	for t := 0; t < e.slots; t++ {
		m.Vals[t] = flat[t*width : (t+1)*width]
	}
	return m
}

// BaseMatrices computes the base TRRS matrices of several antenna pairs in
// one build (see run). Of a reversed pair {(i,j), (j,i)} only the first is
// swept and the twin is reflected by the κ̄ reflection above; exact
// duplicates share one matrix; a self-pair (i,i) sweeps only its
// non-negative lags and reflects the rest (see pairSource). The swept work
// is cut into time blocks of max(T/(4·workers), 16) rows, which balances
// scheduling overhead against load balance and cache footprint, and runs
// block-major across pairs (see interleave). Each computed entry is an
// independent pure function of the normalized snapshots, so the output is
// deterministic and bit-for-bit identical to BaseMatrixSerial regardless
// of worker count, scheduling, or which of the symmetry paths produced
// it. This is the only goroutine fan-out in the package: incremental
// refreshes run on an engine view, with one worker.
func (e *Engine) BaseMatrices(pairs []PairSpec, w int) []*Matrix {
	out := make([]*Matrix, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	width := 2*w + 1
	block := max(e.slots/(e.workers()*4), 16)
	var work, twins []batchItem
	seg := make([]int, 1, len(pairs)+1)
	for k, p := range pairs {
		src, alias := pairSource(pairs, k)
		if alias {
			out[k] = out[src]
			continue
		}
		m := e.newFlatMatrix(p.I, p.J, w)
		out[k] = m
		if src >= 0 {
			twins = append(twins, batchItem{m: m, src: out[src], t1: e.slots, c1: width})
			continue
		}
		c0 := 0
		if p.I == p.J {
			c0 = w
			twins = append(twins, batchItem{m: m, src: m, t1: e.slots, c1: w})
		}
		for t0 := 0; t0 < e.slots; t0 += block {
			work = append(work, batchItem{m: m, t0: t0, t1: min(t0+block, e.slots), c0: c0, c1: width})
		}
		seg = append(seg, len(work))
	}
	e.run(interleave(make([]batchItem, 0, len(work)), work, seg), twins, len(pairs))
	return out
}
