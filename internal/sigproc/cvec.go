// Package sigproc implements the signal-processing kernels used across RIM:
// complex vector operations, FFT, phase ramps, smoothing filters,
// interpolation, and summary statistics.
//
// The package is dependency-free and allocation-conscious: the inner-product
// kernels here sit on the hot path of the TRRS computation (every CSI sample
// against every lag in the alignment window), so they operate on plain
// slices and avoid interface indirection.
package sigproc

import (
	"math"
	"math/cmplx"
)

// InnerProduct returns the complex inner product <a, b> = sum_i conj(a[i])*b[i].
// It panics if the lengths differ; on the hot path callers guarantee shape.
func InnerProduct(a, b []complex128) complex128 {
	if len(a) != len(b) {
		panic("sigproc: InnerProduct length mismatch")
	}
	// Accumulate real and imaginary parts separately; this lets the
	// compiler keep the accumulators in registers.
	var re, im float64
	for i := range a {
		ar, ai := real(a[i]), imag(a[i])
		br, bi := real(b[i]), imag(b[i])
		re += ar*br + ai*bi
		im += ar*bi - ai*br
	}
	return complex(re, im)
}

// Energy returns <a, a> as a real number.
func Energy(a []complex128) float64 {
	var e float64
	for _, v := range a {
		re, im := real(v), imag(v)
		e += re*re + im*im
	}
	return e
}

// Normalize scales a in place to unit energy and returns the original
// Euclidean norm. A zero vector is left unchanged and 0 is returned.
func Normalize(a []complex128) float64 {
	n := math.Sqrt(Energy(a))
	if n == 0 {
		return 0
	}
	inv := complex(1/n, 0)
	for i := range a {
		a[i] *= inv
	}
	return n
}

// Conj returns the element-wise conjugate of a in a new slice.
func Conj(a []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i, v := range a {
		out[i] = cmplx.Conj(v)
	}
	return out
}

// ApplyPhaseRamp multiplies a[k] by exp(i*(offset + slope*k)) in place.
// It is the building block for injecting and removing linear phase errors
// (CFO/SFO/STO) across subcarriers.
func ApplyPhaseRamp(a []complex128, offset, slope float64) {
	s0, c0 := math.Sincos(offset)
	rot := complex(c0, s0)
	ds, dc := math.Sincos(slope)
	step := complex(dc, ds)
	for i := range a {
		a[i] *= rot
		rot *= step
	}
}
