package sigproc

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x, or 0 for len(x) < 2.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Median returns the median of x, or 0 for an empty slice.
func Median(x []float64) float64 { return Percentile(x, 50) }

// MedianInPlace is Median for a slice the caller owns: it sorts x in
// place instead of copying it, and returns the same value.
func MedianInPlace(x []float64) float64 {
	sort.Float64s(x)
	return sortedPercentile(x, 50)
}

// Percentile returns the p-th percentile (0..100) of x using linear
// interpolation between order statistics. x is not modified.
func Percentile(x []float64, p float64) float64 {
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

// sortedPercentile is Percentile of an already sorted s.
func sortedPercentile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Max returns the maximum of x, or -Inf for an empty slice.
func Max(x []float64) float64 {
	best := math.Inf(-1)
	for _, v := range x {
		if v > best {
			best = v
		}
	}
	return best
}

// Min returns the minimum of x, or +Inf for an empty slice.
func Min(x []float64) float64 {
	best := math.Inf(1)
	for _, v := range x {
		if v < best {
			best = v
		}
	}
	return best
}
