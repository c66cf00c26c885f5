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

// batchItem is one unit of sweep work: columns [c0, c1) of rows [t0, t1)
// of m.
type batchItem struct {
	m      *Matrix
	t0, t1 int
	c0, c1 int
}

// run sweeps a build's items: in order on the calling goroutine when the
// engine has one worker (GOMAXPROCS 1, or an incremental engine view),
// otherwise pulled one at a time off an atomic counter by a pool of
// workers. Items write disjoint entries of preallocated rows, so the
// result does not depend on the worker count or the scheduling. Callers
// list each pair's items in time order, pair after pair. Sweeping
// block-major across pairs instead (each time block for every pair before
// the next block, so a block's planes are read once) did not pay: on a
// 2-vCPU host a paper-point hexagonal streamer (200 Hz, 114 tones, 18
// pairs), whose planes outgrow the cache, ran at 66–88% of this order's
// slots/s, and at the daemon's smaller shapes it was no faster.
//
// Rows swept up to the last column are the rows computed from scratch (a
// self-pair's non-negative half band included; an incremental refresh's
// partial rows stop short of it): they count in rim_trrs_rows_filled_total
// and as A of the one trace.KindTRRSFill event, whose B is the caller's
// pair count. Reflections run after run returns, since they read rows the
// sweep writes (see reflect).
func (e *Engine) run(items []batchItem, pairs int) {
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
		return
	}
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

// sweep computes an item's entries with the kernel.
func (e *Engine) sweep(it batchItem) {
	for t := it.t0; t < it.t1; t++ {
		e.fillCols(it.m.Vals[t], it.m.I, it.m.J, it.m.W, t, it.c0, it.c1)
	}
}

// reflect derives columns [0, c1) of every row of m from src by the κ̄
// reflection (see reflectRow). A reversed twin passes c1 = 2w+1; a
// self-pair's negative lags pass its own matrix as src with c1 = w: they
// read only columns > w.
func reflect(m, src *Matrix, c1 int) {
	for t, row := range m.Vals {
		reflectRow(row[:c1], src, t)
	}
}

// reflectRow writes columns [0, len(row)) of row t of src's reversed twin
// by the κ̄ reflection base[t][l] = base_src[t−l][−l] (column 2w−c holds
// lag −l). Entries whose source slot t−l falls outside the series get
// the +0 fillCols would have written. Scratch.Derive reads a twin's rows
// through it, so no twin matrix is built.
func reflectRow(row []float64, src *Matrix, t int) {
	w := src.W
	// Column c reads slot t−(c−w), inside [0, len(src.Vals)) for c in
	// [cLo, cHi).
	cLo := min(max(t+w-len(src.Vals)+1, 0), len(row))
	cHi := max(min(t+w+1, len(row)), cLo)
	clear(row[:cLo])
	clear(row[cHi:])
	// rows[k] is slot t+w−c for c = cHi−1−k.
	rows := src.Vals[t+w-cHi+1 : t+w-cLo+1]
	for k, r := range rows {
		c := cHi - 1 - k
		row[c] = r[2*w-c]
	}
}

// reflectPair writes rows t (row0) and t+1 (row1) of src's reversed
// twin, as two reflectRow calls would. Away from the edges it reads each
// source row once for both: row t's column c and row t+1's column c+1
// both come from slot t+w−c, at its adjacent columns 2w−c and 2w−c−1.
func reflectPair(row0, row1 []float64, src *Matrix, t int) {
	w := src.W
	if t < w || t+w+1 >= len(src.Vals) {
		reflectRow(row0, src, t)
		reflectRow(row1, src, t+1)
		return
	}
	row1[0] = src.Vals[t+w+1][2*w]
	// rows[k] is slot t−w+k, read by row0's column 2w−k.
	rows := src.Vals[t-w : t+w+1]
	for k, r := range rows {
		c := 2*w - k
		row0[c] = r[k]
		if k > 0 {
			row1[c+1] = r[k-1]
		}
	}
}

// reflectInto returns the reversed twin of src, the (J, I) base matrix,
// allocated from the arena (nil arena = plain allocation): every entry is
// reflected from src (see reflect), so it holds the bits a sweep of the
// twin would.
func reflectInto(a *MatrixArena, src *Matrix) *Matrix {
	m := a.matrix(src.J, src.I, src.W, len(src.Vals), src.Rate)
	reflect(m, src, 2*src.W+1)
	return m
}

// BaseMatrices computes the base TRRS matrices of several antenna pairs in
// one build (see run). Of a reversed pair {(i,j), (j,i)} only the first is
// swept and the twin is reflected by the κ̄ reflection above; exact
// duplicates share one matrix; a self-pair (i,i) sweeps only its
// non-negative lags and reflects the rest (see pairSource). Each swept
// pair is cut into time blocks of max(T/(4·workers), 16) rows, which
// balances scheduling overhead against load balance, listed in time
// order. Each computed entry is an independent pure function of the
// normalized snapshots, so the output is deterministic and bit-for-bit
// identical to BaseMatrixSerial regardless of worker count, scheduling,
// or which of the symmetry paths produced it. This is the only goroutine
// fan-out in the package: incremental refreshes run on an engine view,
// with one worker.
func (e *Engine) BaseMatrices(pairs []PairSpec, w int) []*Matrix {
	out := make([]*Matrix, len(pairs))
	width := 2*w + 1
	block := max(e.slots/(e.workers()*4), 16)
	var work []batchItem
	for k, p := range pairs {
		if src, alias := pairSource(pairs, k); alias || src >= 0 {
			continue // filled in once the sources are swept
		}
		out[k] = newMatrix(p.I, p.J, w, e.slots, e.rate)
		c0 := 0
		if p.I == p.J {
			c0 = w
		}
		for t0 := 0; t0 < e.slots; t0 += block {
			work = append(work, batchItem{m: out[k], t0: t0, t1: min(t0+block, e.slots), c0: c0, c1: width})
		}
	}
	if len(pairs) > 0 {
		e.run(work, len(pairs))
	}
	for k, p := range pairs {
		switch src, alias := pairSource(pairs, k); {
		case alias:
			out[k] = out[src]
		case src >= 0:
			out[k] = reflectInto(nil, out[src])
		case p.I == p.J:
			reflect(out[k], out[k], w)
		}
	}
	return out
}
