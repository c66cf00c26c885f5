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
	// values is the slabs' total capacity, in values.
	values() int
	// fits reports whether the store has the given antenna and tx counts
	// and slabs of at least size values.
	fits(numAnts, numTx, size int) bool
	// viewInto points dst (same element type) at offsets [lo, hi) of the
	// given antennas' planes.
	viewInto(dst planeStore, ants []int, lo, hi int)
	// release drops every slab reference a view holds, so the view keeps
	// no store alive.
	release()
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

func (p *planes[T]) values() int {
	n := 0
	for a := range p.re {
		for tx := range p.re[a] {
			n += cap(p.re[a][tx]) + cap(p.im[a][tx])
		}
	}
	return n
}

func (p *planes[T]) fits(numAnts, numTx, size int) bool {
	return len(p.re) == numAnts && numAnts > 0 && len(p.re[0]) == numTx && numTx > 0 &&
		len(p.re[0][0]) >= size
}

func (p *planes[T]) release() {
	for a := range p.re {
		clear(p.re[a])
		clear(p.im[a])
	}
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

// PlaneStore is a reusable backing for the normalized CSI planes an
// Incremental reads during its refreshes. A caller that runs many engines
// one hop at a time (core keeps one per pooled hop scratch) lends it, as
// part of a Scratch, to the engine of the hop at hand with
// Incremental.Lend and takes it back after:
// the planes are a pure function of the raw rows, so each refresh
// re-normalizes what it reads and nothing of a lent store outlives the
// hop. The zero value is empty; the store takes the shape and precision
// of whichever engine uses it, reallocating on a change. A PlaneStore is
// not goroutine-safe; it serves one engine at a time.
type PlaneStore struct {
	st   planeStore
	prec Precision
}

// fit returns the store's planes for the given precision and shape with
// room for size values per slab, reallocating them at alloc values (at
// least size) when they do not fit.
func (p *PlaneStore) fit(prec Precision, numAnts, numTx, size, alloc int) planeStore {
	if p.st == nil || p.prec != prec || !p.st.fits(numAnts, numTx, size) {
		p.st, p.prec = newStore(prec, numAnts, numTx, max(size, alloc)), prec
	}
	return p.st
}

// Bytes reports the store's backing size, for the scratch-pool gauge.
func (p *PlaneStore) Bytes() int {
	if p == nil {
		return 0
	}
	return storeBytes(p.st, p.prec)
}

// storeBytes is the backing size of planes of the given precision (0 for
// none).
func storeBytes(st planeStore, prec Precision) int {
	if st == nil {
		return 0
	}
	if prec == PrecisionFloat32 {
		return st.values() * 4
	}
	return st.values() * 8
}
