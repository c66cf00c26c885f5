package main

import (
	"math"
	"sort"
	"time"
)

// rankIndex is the nearest-rank index of quantile q in a sorted sample of
// size n.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// quantiles returns the nearest-rank quantiles qs of xs (sorted in place);
// NaN for an empty sample.
func quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sort.Float64s(xs)
	for i, q := range qs {
		out[i] = xs[rankIndex(len(xs), q)]
	}
	return out
}

// durQuantile returns quantile q of ds in the given unit (e.g.
// time.Millisecond); NaN for an empty sample.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantiles(xs, q)[0]
}

func median(xs []float64) float64 { return quantiles(xs, 0.5)[0] }

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
