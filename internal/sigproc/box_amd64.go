package sigproc

// boxStepAVX2 is the assembly kernel (see box_amd64.s). Pointers to rows
// that are nil are never dereferenced: mode bit 0 writes dst before the
// update, bit 1 adds add, bit 2 subtracts rem, bit 3 writes dst after the
// update and leaves sums as it was (boxStepGeneric's post, which the Go
// side runs with add set and rem nil only).
//
//go:noescape
func boxStepAVX2(dst, sums, add, rem *float64, n int, inv float64, mode int)

// boxStep runs the kernel (see box.go) on len(sums) elements.
func boxStep(dst, sums, add, rem []float64, inv float64, post bool) {
	boxCheck(dst, sums, add, rem)
	if !boxVec || len(sums) == 0 {
		boxStepGeneric(dst, sums, add, rem, inv, post)
		return
	}
	var pd, pa, pr *float64
	mode := 0
	if dst != nil {
		pd, mode = &dst[0], 1
		if post {
			mode = 8
		}
	}
	if add != nil {
		pa, mode = &add[0], mode|2
	}
	if rem != nil {
		pr, mode = &rem[0], mode|4
	}
	boxStepAVX2(pd, &sums[0], pa, pr, len(sums), inv, mode)
}
