//go:build !amd64

package sigproc

// boxStep runs the kernel (see box.go); non-amd64 builds have only the
// Go one.
func boxStep(dst, sums, add, rem []float64, inv float64, post bool) {
	boxCheck(dst, sums, add, rem)
	boxStepGeneric(dst, sums, add, rem, inv, post)
}
