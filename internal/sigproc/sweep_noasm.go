//go:build !amd64

package sigproc

// Non-amd64 builds have no vector sweep backend; the portable scalar
// sweeps are the implementation.
const vecSupported = false

func dotSqSweep[T Float](out []float64, ar, ai, br, bi []T, off, stride, tones int) {
	dotSqSweepGeneric(out, ar, ai, br, bi, off, stride, tones)
}
