package sigproc

import "cmp"

// MovingAverage returns the centered moving average of x with the given
// window half-width. Element i averages x[max(0,i-half) .. min(n-1,i+half)],
// shrinking the window at the edges. half <= 0 returns a copy.
func MovingAverage(x []float64, half int) []float64 {
	n := len(x)
	out := make([]float64, n)
	if half <= 0 {
		copy(out, x)
		return out
	}
	// Prefix sums for O(n).
	prefix := make([]float64, n+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	for i := 0; i < n; i++ {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= n {
			hi = n - 1
		}
		out[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return out
}

// MedianFilter returns the centered running median of x with the given
// window half-width, shrinking the window at the edges. Robust to the
// impulsive outliers that packet loss produces in lag sequences.
//
// The window is kept sorted across steps under cmp.Compare order (NaN
// below every number, -0 equal to +0): each step binary-searches one
// insertion at the upper bound of its equal run and one deletion at the
// lower bound, so equal values stay in arrival order and the window is
// exactly the stable sort of x[lo..hi]. O(n·half) moves instead of a sort
// per window.
func MedianFilter(x []float64, half int) []float64 {
	n := len(x)
	out := make([]float64, n)
	if half <= 0 {
		copy(out, x)
		return out
	}
	win := make([]float64, 0, 2*half+1)
	next := 0 // next index of x to enter the window
	for i := 0; i < n; i++ {
		if old := i - half - 1; old >= 0 {
			k := searchFloat(win, x[old], 0)
			win = append(win[:k], win[k+1:]...)
		}
		for ; next < n && next <= i+half; next++ {
			v := x[next]
			k := searchFloat(win, v, 1)
			win = append(win, 0)
			copy(win[k+1:], win[k:])
			win[k] = v
		}
		m := len(win)
		if m%2 == 1 {
			out[i] = win[m/2]
		} else {
			out[i] = 0.5 * (win[m/2-1] + win[m/2])
		}
	}
	return out
}

// searchFloat returns the first index k of the cmp.Compare-sorted s with
// cmp.Compare(s[k], v) >= bound: bound 0 finds the lower bound of v's
// equal run, bound 1 its upper bound.
func searchFloat(s []float64, v float64, bound int) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmp.Compare(s[mid], v) < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
