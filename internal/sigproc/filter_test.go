package sigproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMovingAverageBasic(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(x, 1)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if !almostF(got[i], want[i], 1e-12) {
			t.Errorf("MA[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMovingAverageZeroWindowIsCopy(t *testing.T) {
	x := []float64{3, 1, 4}
	got := MovingAverage(x, 0)
	for i := range x {
		if got[i] != x[i] {
			t.Fatal("half=0 must copy")
		}
	}
	got[0] = 99
	if x[0] == 99 {
		t.Error("output aliases input")
	}
}

func TestMovingAveragePreservesConstant(t *testing.T) {
	f := func(c float64, halfRaw uint8) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		c = math.Mod(c, 1e6) // keep prefix sums finite
		half := int(halfRaw % 10)
		x := make([]float64, 25)
		for i := range x {
			x[i] = c
		}
		out := MovingAverage(x, half)
		for _, v := range out {
			if math.Abs(v-c) > 1e-9*(1+math.Abs(c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianFilterRemovesImpulse(t *testing.T) {
	x := []float64{1, 1, 1, 100, 1, 1, 1}
	got := MedianFilter(x, 1)
	for i, v := range got {
		if v != 1 {
			t.Errorf("median[%d] = %v, want 1", i, v)
		}
	}
}

func TestMedianFilterEvenWindowEdges(t *testing.T) {
	x := []float64{2, 4, 6, 8}
	got := MedianFilter(x, 1)
	// Edge windows have 2 elements -> mean of the two order stats.
	if !almostF(got[0], 3, 1e-12) || !almostF(got[3], 7, 1e-12) {
		t.Errorf("edges = %v", got)
	}
}

func TestBoxFilterColumnsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	T, L, half := 23, 7, 3
	src := make([][]float64, T)
	for i := range src {
		src[i] = make([]float64, L)
		for j := range src[i] {
			src[i][j] = rng.NormFloat64()
		}
	}
	dst := make([][]float64, T)
	for i := range dst {
		dst[i] = make([]float64, L)
	}
	BoxFilterColumns(dst, src, half)
	for i := 0; i < T; i++ {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= T {
			hi = T - 1
		}
		for j := 0; j < L; j++ {
			var s float64
			for k := lo; k <= hi; k++ {
				s += src[k][j]
			}
			want := s / float64(hi-lo+1)
			if !almostF(dst[i][j], want, 1e-9) {
				t.Fatalf("dst[%d][%d] = %v, want %v", i, j, dst[i][j], want)
			}
		}
	}
}

func TestBoxFilterColumnsZeroHalf(t *testing.T) {
	src := [][]float64{{1, 2}, {3, 4}}
	dst := [][]float64{make([]float64, 2), make([]float64, 2)}
	BoxFilterColumns(dst, src, 0)
	if dst[1][1] != 4 {
		t.Error("half=0 must copy")
	}
	BoxFilterColumns(nil, nil, 3) // must not panic on empty input
}
