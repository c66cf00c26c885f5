package core

import (
	"sync"

	"rim/internal/trrs"
)

// hopScratch is the hop-lifetime scratch one sliding-window analysis
// borrows: the matrix arena backing the pass's derived (averaged,
// virtual-massive) matrices and reflected reversed twins, and the plane
// store its incremental engine normalizes the CSI it reads into (see
// trrs.Incremental.SetPlanes). One scratch serves one hop at a time;
// concurrent hops of different streams each borrow their own.
type hopScratch struct {
	arena  trrs.MatrixArena
	planes trrs.PlaneStore
}

// hopScratchPool shares hop scratch across every core.Streamer in the
// process: a fleet daemon runs many sessions with similar hop
// geometries, so a scratch warmed by one session's hop serves another's
// without reallocating. Deliberately no New func — a Get that misses
// returns nil and the caller allocates, which is how pool misses are
// counted (rim_scratch_pool_news_total).
var hopScratchPool sync.Pool

// getHopScratch borrows a scratch from the shared pool (allocating on a
// miss) and resets its arena, reclaiming every matrix the previous
// borrower produced.
func getHopScratch(ob *streamObs) *hopScratch {
	ob.scratchGets.Inc()
	s, _ := hopScratchPool.Get().(*hopScratch)
	if s == nil {
		ob.scratchNews.Inc()
		s = &hopScratch{}
	}
	s.arena.Reset()
	return s
}

// putHopScratch returns a scratch to the shared pool and samples its
// retained backing size into the rim_scratch_pool_bytes gauge (the pool
// itself is GC-managed, so the gauge tracks the most recently returned
// scratch — a per-hop watermark, not an exact pool total).
func putHopScratch(s *hopScratch, ob *streamObs) {
	s.arena.Reset()
	ob.scratchBytes.Set(float64(s.arena.Bytes() + s.planes.Bytes()))
	hopScratchPool.Put(s)
}
