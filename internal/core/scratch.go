package core

import (
	"sync"

	"rim/internal/trrs"
)

// hopScratchPool shares hop-lifetime scratch across every core.Streamer
// in the process. One sliding-window analysis borrows a trrs.Scratch and
// lends it to its incremental engine (trrs.Incremental.Lend): the plane
// store the refreshes normalize the CSI they read into, the matrix arena
// backing the pass's derived (virtual-massive) matrices, and the row ring
// they are filtered through (trrs.Scratch.Derive). One scratch serves one
// hop at a time; concurrent hops of different streams each borrow their
// own. A fleet daemon runs many sessions with similar hop geometries, so
// a scratch warmed by one session's hop serves another's without
// reallocating. Deliberately no New func — a Get that misses returns nil
// and the caller allocates, which is how pool misses are counted
// (rim_scratch_pool_news_total).
var hopScratchPool sync.Pool

// getHopScratch borrows a scratch from the shared pool (allocating on a
// miss) and resets its arena, reclaiming every matrix the previous
// borrower produced.
func getHopScratch(ob *streamObs) *trrs.Scratch {
	ob.scratchGets.Inc()
	s, _ := hopScratchPool.Get().(*trrs.Scratch)
	if s == nil {
		ob.scratchNews.Inc()
		s = &trrs.Scratch{}
	}
	s.Arena.Reset()
	return s
}

// putHopScratch returns a scratch to the shared pool and samples its
// retained backing size into the rim_scratch_pool_bytes gauge. The pool
// itself is GC-managed, so the gauge reads the most recently returned
// scratch: its plane store at the steady reach plus hop, one arena slab
// per matrix of the largest hop it served, each at the largest matrix it
// held, and the derive ring.
func putHopScratch(s *trrs.Scratch, ob *streamObs) {
	s.Arena.Reset()
	ob.scratchBytes.Set(float64(s.Bytes()))
	hopScratchPool.Put(s)
}
