package sigproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostF(Mean(x), 5, 1e-12) {
		t.Errorf("Mean = %v", Mean(x))
	}
	if !almostF(Variance(x), 4, 1e-12) {
		t.Errorf("Variance = %v", Variance(x))
	}
	if !almostF(Std(x), 2, 1e-12) {
		t.Errorf("Std = %v", Std(x))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate stats not zero")
	}
}

func TestMedianPercentile(t *testing.T) {
	x := []float64{5, 1, 3}
	if Median(x) != 3 {
		t.Errorf("Median = %v", Median(x))
	}
	y := []float64{1, 2, 3, 4}
	if !almostF(Median(y), 2.5, 1e-12) {
		t.Errorf("even Median = %v", Median(y))
	}
	if Percentile(y, 0) != 1 || Percentile(y, 100) != 4 {
		t.Error("extreme percentiles wrong")
	}
	if !almostF(Percentile(y, 75), 3.25, 1e-12) {
		t.Errorf("P75 = %v", Percentile(y, 75))
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile not 0")
	}
	// Percentile must not reorder the caller's slice.
	z := []float64{9, 1, 5}
	Percentile(z, 50)
	if z[0] != 9 {
		t.Error("Percentile mutated input")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 20)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(x, p)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	x := []float64{3, -1, 7}
	if Min(x) != -1 || Max(x) != 7 {
		t.Error("Min/Max wrong")
	}
	if !math.IsInf(Max(nil), -1) || !math.IsInf(Min(nil), 1) {
		t.Error("empty Min/Max not infinite")
	}
}
