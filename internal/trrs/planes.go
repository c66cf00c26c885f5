package trrs

import "rim/internal/sigproc"

// planes holds unit-normalized CSI structure-of-arrays: re[ant][tx] and
// im[ant][tx] are one slab per (antenna, tx), slot t at offsets
// [t·tones, (t+1)·tones). The element type is the plane precision; each
// operation is written once and Go compiles the float64 and float32
// instantiations separately.
type planes[T sigproc.Float] struct {
	re, im [][][]T
}

// planeStore is planes[T] with the element type erased. Engine and
// Incremental pick the instantiation once, at construction; every method
// covers a whole point query, row, snapshot or view, so the per-entry and
// per-tone loops inside run on the concrete type.
type planeStore interface {
	// put copies src into offset o of plane (a, tx) and normalizes it.
	put(a, tx, o int, src []complex128)
	// base is κ̄ (Eq. 3) between the tones values at offset oi of
	// antenna i and at offset oj of antenna j.
	base(i, j, oi, oj, tones int) float64
	// baseRow and sweepRow set band[k] = κ̄ between offset oi of antenna
	// i and offset oj−k·tones of antenna j: baseRow one point query per
	// entry (the bit-exact sequential kernel), sweepRow one lag sweep per
	// tx (sigproc.DotSqSweepSoA).
	baseRow(band []float64, i, j, oi, oj, tones int)
	sweepRow(band []float64, i, j, oi, oj, tones int)
	// addSlot appends one slot of tones values to every plane of a ring
	// whose live region is [lo, hi): in place when capacity allows, else
	// by compacting the live region to the front, else by growing. Growth
	// doubles the live region or the capacity, whichever is more, but
	// stops at limit values when limit holds the region plus the slot
	// (limit 0: no cap), and a ring below a raised limit grows toward it
	// at its next move instead of compacting. It reports whether the live
	// region moved to offset 0.
	addSlot(lo, hi, tones, limit int) (moved bool)
	// capacity is the number of values each slab holds.
	capacity() int
	// viewInto points dst (same element type) at offsets [lo, hi) of the
	// given antennas' planes.
	viewInto(dst planeStore, ants []int, lo, hi int)
	// shell allocates an empty store of the same element type for
	// numAnts antennas, for viewInto to fill.
	shell(numAnts int) planeStore
}

// newStore allocates planes of the given precision, each slab holding
// size values.
func newStore(prec Precision, numAnts, numTx, size int) planeStore {
	if prec == PrecisionFloat32 {
		return newPlanes[float32](numAnts, numTx, size)
	}
	return newPlanes[float64](numAnts, numTx, size)
}

func newPlanes[T sigproc.Float](numAnts, numTx, size int) *planes[T] {
	p := &planes[T]{re: make([][][]T, numAnts), im: make([][][]T, numAnts)}
	for a := range p.re {
		p.re[a] = make([][]T, numTx)
		p.im[a] = make([][]T, numTx)
		for tx := range p.re[a] {
			p.re[a][tx] = make([]T, size)
			p.im[a][tx] = make([]T, size)
		}
	}
	return p
}

func (p *planes[T]) shell(numAnts int) planeStore {
	return newPlanes[T](numAnts, len(p.re[0]), 0)
}

func (p *planes[T]) put(a, tx, o int, src []complex128) {
	re := p.re[a][tx][o : o+len(src)]
	im := p.im[a][tx][o : o+len(src)]
	for k, c := range src {
		re[k] = T(real(c))
		im[k] = T(imag(c))
	}
	sigproc.NormalizeSoA(re, im)
}

func (p *planes[T]) base(i, j, oi, oj, tones int) float64 {
	ri, ii := p.re[i], p.im[i]
	rj, ij := p.re[j], p.im[j]
	var sum float64
	for tx := range ri {
		sum += sigproc.DotSqSoA(
			ri[tx][oi:oi+tones], ii[tx][oi:oi+tones],
			rj[tx][oj:oj+tones], ij[tx][oj:oj+tones])
	}
	return sum / float64(len(ri))
}

func (p *planes[T]) baseRow(band []float64, i, j, oi, oj, tones int) {
	for k := range band {
		band[k] = p.base(i, j, oi, oj-k*tones, tones)
	}
}

func (p *planes[T]) sweepRow(band []float64, i, j, oi, oj, tones int) {
	clear(band)
	ri, ii := p.re[i], p.im[i]
	for tx := range ri {
		sigproc.DotSqSweepSoA(band, ri[tx][oi:oi+tones], ii[tx][oi:oi+tones],
			p.re[j][tx], p.im[j][tx], oj, -tones, tones)
	}
	if ntx := float64(len(ri)); ntx > 1 {
		for k := range band {
			band[k] /= ntx
		}
	}
}

func (p *planes[T]) addSlot(lo, hi, tones, limit int) bool {
	c := cap(p.re[0][0])
	moved := c < hi+tones
	// Compact when the live region plus the new slot fits and the ring has
	// reached its limit, else grow to 2× the live region or the capacity
	// (a live region trimmed far below the capacity must not shrink the
	// ring), capped at the limit, so steady sliding settles into the
	// extend/compact cycle and never grows again.
	n := hi - lo + tones
	size := 0
	if moved && (lo == 0 || n > c || c < limit) {
		size = 2 * max(n, c)
		if limit >= n {
			size = min(size, limit)
		}
	}
	for a := range p.re {
		for tx := range p.re[a] {
			p.re[a][tx] = appendSlot(p.re[a][tx], lo, hi, tones, moved, size)
			p.im[a][tx] = appendSlot(p.im[a][tx], lo, hi, tones, moved, size)
		}
	}
	return moved
}

func (p *planes[T]) capacity() int { return cap(p.re[0][0]) }

// appendSlot extends one ring slab by a slot, moving the live region into
// a fresh slab of size values when size > 0 (see addSlot).
func appendSlot[T sigproc.Float](s []T, lo, hi, tones int, moved bool, size int) []T {
	if !moved {
		return s[:hi+tones]
	}
	n := hi - lo
	dst := s[:n]
	if size > 0 {
		dst = make([]T, n, size)
	}
	copy(dst, s[lo:hi])
	return dst[:n+tones]
}

func (p *planes[T]) viewInto(dst planeStore, ants []int, lo, hi int) {
	v := dst.(*planes[T])
	for k, a := range ants {
		for tx := range p.re[a] {
			v.re[k][tx] = p.re[a][tx][lo:hi]
			v.im[k][tx] = p.im[a][tx][lo:hi]
		}
	}
}
