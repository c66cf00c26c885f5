package sigproc

// InterpolateMissing fills nil entries of a sequence of complex vectors by
// linear interpolation between the nearest non-nil neighbors. Leading and
// trailing gaps are filled by copying the nearest valid vector. This is the
// packet-loss repair described in §5 of the paper: a lost broadcast packet
// leaves a null CSI slot that is reconstructed before TRRS computation.
//
// All non-nil vectors must share one length; the filled vectors are newly
// allocated. If every entry is nil the input is returned unchanged.
func InterpolateMissing(frames [][]complex128) [][]complex128 {
	n := len(frames)
	// Collect indices of valid frames.
	valid := make([]int, 0, n)
	for i, f := range frames {
		if f != nil {
			valid = append(valid, i)
		}
	}
	if len(valid) == 0 || len(valid) == n {
		return frames
	}
	out := make([][]complex128, n)
	copy(out, frames)
	first, last := valid[0], valid[len(valid)-1]
	for i := 0; i < first; i++ {
		out[i] = cloneC(frames[first])
	}
	for i := last + 1; i < n; i++ {
		out[i] = cloneC(frames[last])
	}
	for vi := 0; vi+1 < len(valid); vi++ {
		lo, hi := valid[vi], valid[vi+1]
		if hi == lo+1 {
			continue
		}
		a, b := frames[lo], frames[hi]
		span := float64(hi - lo)
		for i := lo + 1; i < hi; i++ {
			t := complex(float64(i-lo)/span, 0)
			v := make([]complex128, len(a))
			for k := range a {
				v[k] = a[k] + (b[k]-a[k])*t
			}
			out[i] = v
		}
	}
	return out
}

func cloneC(a []complex128) []complex128 {
	out := make([]complex128, len(a))
	copy(out, a)
	return out
}
