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

// shard is one unit of worker-pool work: a block of consecutive rows of
// one pair's base matrix.
type shard struct {
	pair   int // index into the compute/out slices
	t0, t1 int // row range [t0, t1)
}

// batchPlan is the cross-pair batched schedule of a multi-pair build: the
// shards are ordered time-block-major (all pairs of block [t0, t1), then
// all pairs of the next block) instead of pair-major. Rows t ∈ [t0, t1)
// of every pair sweep the same slot range [t0−W, t1) of the CSI planes,
// and distinct pairs share antenna planes, so one pass over each time
// block feeds every pair sharing it: the block's plane data is read from
// memory once and reused from cache across pairs, rather than streamed
// from memory once per pair. The schedule is a pure reordering of
// independent row fills, so the output is bit-for-bit unchanged.
type batchPlan struct {
	block  int
	shards []shard
}

// planBatches builds the block-major schedule for the given computed-pair
// indices. The block size balances scheduling overhead against load
// balance and cache footprint: every worker gets several blocks, never
// below 16 rows.
func (e *Engine) planBatches(compute []int, workers int) batchPlan {
	block := e.slots / (workers * 4)
	if block < 16 {
		block = 16
	}
	plan := batchPlan{block: block}
	for t0 := 0; t0 < e.slots; t0 += block {
		t1 := t0 + block
		if t1 > e.slots {
			t1 = e.slots
		}
		for _, k := range compute {
			plan.shards = append(plan.shards, shard{pair: k, t0: t0, t1: t1})
		}
	}
	return plan
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

// pairPlan is the symmetry-deduplication plan for one requested pair:
// exactly one of compute / aliasOf / reflectOf applies.
type pairPlan struct {
	aliasOf   int // index of an identical earlier pair (-1 = none)
	reflectOf int // index of the reversed earlier pair (-1 = none)
}

// planPairs assigns each requested pair to compute, alias or reflect.
func planPairs(pairs []PairSpec) (plans []pairPlan, compute []int) {
	plans = make([]pairPlan, len(pairs))
	first := make(map[PairSpec]int, len(pairs))
	for k, p := range pairs {
		plans[k] = pairPlan{aliasOf: -1, reflectOf: -1}
		if m, ok := first[p]; ok {
			plans[k].aliasOf = m
			continue
		}
		if m, ok := first[PairSpec{I: p.J, J: p.I}]; ok {
			plans[k].reflectOf = m
			continue
		}
		first[p] = k
		compute = append(compute, k)
	}
	return plans, compute
}

// reflectInto derives columns [cFrom, cTo) of dst from src by the κ̄
// reflection base_dst[t][l] = base_src[t−l][−l] (column 2w−c holds lag −l).
// Self-pair half-band completion passes dst == src with cTo = w: the sweep
// then only reads columns > w, which phase 1 computed, and only writes
// columns < w.
func reflectInto(dst, src [][]float64, w, cFrom, cTo int) {
	for t, row := range dst {
		reflectRow(row, src, w, t, cFrom, cTo)
	}
}

// reflectRow is reflectInto for columns [c0, c1) of row t. Entries whose
// source slot t−l falls outside the series get the same zero fillRow
// would have written.
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
// one worker pool, sharded by pair × time block. Symmetry deduplication
// runs first: of a reversed pair {(i,j), (j,i)} only the first is computed
// and the twin is derived by the κ̄ reflection above; exact duplicates
// share one matrix; a self-pair (i,i) computes only its non-negative lags
// and reflects the rest. Each computed entry is an independent pure
// function of the normalized snapshots and every shard writes a disjoint
// row range of a preallocated buffer, so the output is deterministic and
// bit-for-bit identical to BaseMatrixSerial regardless of worker count,
// scheduling, or which of the symmetry paths produced it. With one worker
// (GOMAXPROCS 1, or an incremental engine view) the same plan runs on the
// calling goroutine. This is the only goroutine fan-out in the package:
// incremental refreshes are serial (see fillRows).
func (e *Engine) BaseMatrices(pairs []PairSpec, w int) []*Matrix {
	out := make([]*Matrix, len(pairs))
	if len(pairs) == 0 {
		return out
	}
	plans, compute := planPairs(pairs)
	for _, k := range compute {
		out[k] = e.newFlatMatrix(pairs[k].I, pairs[k].J, w)
	}
	e.rowsFilled.Add(uint64(len(compute) * e.slots))
	if e.trc != nil {
		// Bulk multi-pair build: Frame = -1, A = rows computed from
		// scratch, B = pairs requested (aliases/reflections included).
		e.trc.Emit(trace.KindTRRSFill, e.hop, -1, int64(len(compute)*e.slots), int64(len(pairs)))
	}

	// Phase 1: fill the computed matrices (self-pairs: half band only),
	// cross-pair batched: the batchPlan orders the work time-block-major so
	// each block of the CSI planes is read once and reused across every
	// pair sharing it (see batchPlan).
	fill := func(k, t int) {
		p, m := pairs[k], out[k]
		if p.I == p.J {
			e.fillCols(m.Vals[t], p.I, p.J, w, t, w, 2*w+1)
		} else {
			e.fillRow(m.Vals[t], p.I, p.J, w, t)
		}
	}
	workers := e.workers()
	if workers == 1 || e.slots == 0 {
		e.poolGauge.Set(1)
		plan := e.planBatches(compute, 1)
		for _, sh := range plan.shards {
			for t := sh.t0; t < sh.t1; t++ {
				fill(sh.pair, t)
			}
		}
	} else {
		plan := e.planBatches(compute, workers)
		if workers > len(plan.shards) {
			workers = len(plan.shards)
		}
		e.poolGauge.Set(float64(workers))

		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for g := 0; g < workers; g++ {
			go func() {
				defer wg.Done()
				for {
					n := int(next.Add(1)) - 1
					if n >= len(plan.shards) {
						return
					}
					sh := plan.shards[n]
					for t := sh.t0; t < sh.t1; t++ {
						fill(sh.pair, t)
					}
				}
			}()
		}
		wg.Wait()
	}

	// Phase 2 (after the barrier — reflections read computed rows at other
	// time indices): complete self-pair negative lags, derive reversed
	// twins, alias exact duplicates.
	for _, k := range compute {
		if pairs[k].I == pairs[k].J {
			reflectInto(out[k].Vals, out[k].Vals, w, 0, w)
		}
	}
	for k := range pairs {
		switch {
		case plans[k].aliasOf >= 0:
			out[k] = out[plans[k].aliasOf]
		case plans[k].reflectOf >= 0:
			src := out[plans[k].reflectOf]
			m := e.newFlatMatrix(pairs[k].I, pairs[k].J, w)
			reflectInto(m.Vals, src.Vals, w, 0, 2*w+1)
			out[k] = m
		}
	}
	return out
}

// batchItem is one refresh of an incremental matrix: columns [c0, c1) of
// row t of m, computed by the kernel or, when src is set, reflected from
// the reversed twin src.
type batchItem struct {
	m, src *Matrix
	t      int
	c0, c1 int
}

// fillRows computes an explicit list of items, in order, on the calling
// goroutine — the incremental engine's refresh path. The caller orders
// the items so consecutive fills sweep the same slot range of the CSI
// planes (see Incremental.ExtendMatrices). Only full-row items count as
// rows filled, in rim_trrs_rows_filled_total and in the one
// trace.KindTRRSFill event emitted with the given Frame and B fields.
func (e *Engine) fillRows(items []batchItem, frame, b int64) {
	full := 0
	for _, it := range items {
		if it.c0 == 0 && it.c1 == 2*it.m.W+1 {
			full++
		}
	}
	e.rowsFilled.Add(uint64(full))
	if e.trc != nil {
		e.trc.Emit(trace.KindTRRSFill, e.hop, frame, int64(full), b)
	}
	for _, it := range items {
		e.fillCols(it.m.Vals[it.t], it.m.I, it.m.J, it.m.W, it.t, it.c0, it.c1)
	}
}
