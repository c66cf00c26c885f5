package sigproc

// Running box filter along the time axis of a matrix: the moving-average
// factorization of the virtual-massive-antenna TRRS (Eq. 4). Every output
// row is one call of the element-wise kernel boxStep, which writes the
// row from the window's running column sums and slides the window by one
// row in the same pass:
//
//	dst[j] = sums[j]·inv;  sums[j] += add[j];  sums[j] −= rem[j]
//
// On amd64 with AVX2 (the sweeps' runtime detection, see VecSupported) the
// kernel is assembly over 4 float64 lanes with a scalar tail; elsewhere it
// is the Go loop boxStepGeneric. Both run the same IEEE-754 operations on
// every element in the same order, and never fuse the multiply into an
// add (no FMA), so they write the same bits, ±0 and ±Inf included. Only
// NaN payloads can differ: when both operands of an add are NaN, the
// assembly returns the running sum's, and the Go compiler may order the
// operands of a commutative add either way.

// boxVec selects the AVX2 kernel where there is one: it is vecSupported,
// and the tests clear it to run the Go kernel on the same machine.
var boxVec = vecSupported

// BoxFilterColumns smooths a T x L matrix along the first (time) axis with a
// centered window of half-width half, writing the result into dst (same
// shape). It is the moving-average factorization of the virtual-massive-
// antenna TRRS (Eq. 4): averaging base TRRS values over V consecutive
// samples equals a box filter with half = V/2.
//
// dst and src may not alias. Rows are []float64 of equal length L.
func BoxFilterColumns(dst, src [][]float64, half int) {
	if len(src) == 0 {
		return
	}
	BoxFilterRows(dst, make([]float64, len(src[0])), half, func(r int) []float64 { return src[r] })
}

// BoxFilterRows is BoxFilterColumns over input rows produced on demand:
// it writes the len(dst) output rows and asks row(r) for input row r
// (r < len(dst)) when the row enters the window, and again when it leaves
// it. New rows are asked for in increasing r, so a caller can build each
// row when it is first asked for and keep it until the window has passed
// it: at most 2·half+2 rows are in use at once. sums is scratch of the
// rows' length; its contents are overwritten. Output row i averages input
// rows [max(0, i−half), min(T−1, i+half)], each column summed in row
// order, from +0, and scaled by 1/count; half ≤ 0 copies the rows.
func BoxFilterRows(dst [][]float64, sums []float64, half int, row func(r int) []float64) {
	t := len(dst)
	if half <= 0 {
		for i := range dst {
			copy(dst[i], row(i))
		}
		return
	}
	clear(sums)
	count := 0
	for i := 0; i <= half && i < t; i++ {
		boxStep(nil, sums, row(i), nil, 0, false)
		count++
	}
	for i := 0; i < t; i++ {
		var add, rem []float64
		if a := i + half + 1; a < t {
			add = row(a)
		}
		if r := i - half; r >= 0 {
			rem = row(r)
		}
		boxStep(dst[i], sums, add, rem, 1/float64(count), false)
		if add != nil {
			count++
		}
		if rem != nil {
			count--
		}
	}
}

// AddRow adds src into dst element by element (dst[j] += src[j]); src
// must be at least as long as dst.
func AddRow(dst, src []float64) { boxStep(nil, dst, src, nil, 0, false) }

// ScaleRow multiplies x by k element by element (x[j] *= k).
func ScaleRow(x []float64, k float64) { boxStep(x, x, nil, nil, k, false) }

// MeanRow writes dst[j] = (a[j] + b[j])·k for j < len(a), the sum rounded
// before the product: a copy of a, plus b, times k, in one pass. With
// k = 1/2 it is the average of two rows; with k = 1 the first step of a
// longer one. dst may alias a.
func MeanRow(dst, a, b []float64, k float64) { boxStep(dst, a, b, nil, k, true) }

// boxCheck panics unless dst, add and rem are each nil (that step is
// skipped) or at least as long as sums: the kernel runs over len(sums)
// elements. dst may alias sums only when add and rem are nil, or in the
// post mode (see boxStepGeneric).
func boxCheck(dst, sums, add, rem []float64) {
	n := len(sums)
	if (dst != nil && len(dst) < n) || (add != nil && len(add) < n) || (rem != nil && len(rem) < n) {
		panic("sigproc: box filter row shorter than its sums")
	}
}

// boxStepGeneric is the portable kernel and the oracle of the assembly.
// With post set (MeanRow: add set, rem nil) it writes dst = (sums +
// add)·inv instead and leaves sums as it was.
func boxStepGeneric(dst, sums, add, rem []float64, inv float64, post bool) {
	n := len(sums)
	switch {
	case post:
		dst, add = dst[:n], add[:n]
		for j, s := range sums {
			dst[j] = (s + add[j]) * inv
		}
		return
	case dst != nil && add != nil && rem != nil:
		dst, add, rem = dst[:n], add[:n], rem[:n]
		for j, s := range sums {
			dst[j] = s * inv
			s += add[j]
			sums[j] = s - rem[j]
		}
		return
	}
	if dst != nil {
		dst = dst[:n]
		for j, s := range sums {
			dst[j] = s * inv
		}
	}
	if add != nil {
		add = add[:n]
		for j := range sums {
			sums[j] += add[j]
		}
	}
	if rem != nil {
		rem = rem[:n]
		for j := range sums {
			sums[j] -= rem[j]
		}
	}
}
