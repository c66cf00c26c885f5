package sigproc

import (
	"math"
	"math/rand"
	"testing"
)

// specialRow fills x with normal values and, at random positions, ±0,
// ±Inf and NaN, so sums pass through NaN and Inf − Inf (the default NaN).
func specialRow(rng *rand.Rand, x []float64) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for j := range x {
		if rng.Intn(8) == 0 {
			x[j] = specials[rng.Intn(len(specials))]
		} else {
			x[j] = rng.NormFloat64()
		}
	}
}

// withBoxVec runs f with the vector kernel switched on or off.
func withBoxVec(on bool, f func()) {
	saved := boxVec
	boxVec = on
	defer func() { boxVec = saved }()
	f()
}

// sameBits reports whether a and b hold the same bits, NaN payloads
// aside: the Go compiler may give a commutative add either operand order,
// so which of two NaNs propagates is not defined by the Go kernel.
func sameBits(a, b []float64) bool {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) && !(math.IsNaN(a[j]) && math.IsNaN(b[j])) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestBoxStepVecMatchesGeneric runs every mode of the kernel (each of
// dst, add and rem present or not, dst written before or after the
// update, and ScaleRow's and MeanRow's in-place dst) over every tail
// class, forced to the Go kernel and on the dispatched one, and wants the
// same bits in dst and sums.
func TestBoxStepVecMatchesGeneric(t *testing.T) {
	if !vecSupported {
		t.Log("no AVX2 on this machine: the dispatched kernel is the Go one")
	}
	rng := rand.New(rand.NewSource(31))
	for n := 1; n <= 19; n++ {
		for mode := 0; mode < 16; mode++ {
			post := mode&8 != 0
			if post && mode&6 != 2 {
				continue // the post mode is MeanRow's: add, no rem
			}
			sums, add, rem := make([]float64, n), make([]float64, n), make([]float64, n)
			specialRow(rng, sums)
			specialRow(rng, add)
			specialRow(rng, rem)
			inv := 1 / float64(1+rng.Intn(31))
			run := func() (dst, s []float64) {
				s = append([]float64(nil), sums...)
				var d, a, r []float64
				if mode&1 != 0 || post {
					d = make([]float64, n)
				}
				if mode&2 != 0 {
					a = add
				}
				if mode&4 != 0 {
					r = rem
				}
				boxStep(d, s, a, r, inv, post)
				return d, s
			}
			var gd, gs, vd, vs []float64
			withBoxVec(false, func() { gd, gs = run() })
			withBoxVec(vecSupported, func() { vd, vs = run() })
			if !sameBits(gd, vd) || !sameBits(gs, vs) {
				t.Fatalf("n=%d mode=%b: vector dst %v sums %v, Go dst %v sums %v", n, mode, vd, vs, gd, gs)
			}
		}
		x := make([]float64, n)
		specialRow(rng, x)
		g, v := append([]float64(nil), x...), append([]float64(nil), x...)
		withBoxVec(false, func() { ScaleRow(g, 1.0/3) })
		withBoxVec(vecSupported, func() { ScaleRow(v, 1.0/3) })
		if !sameBits(g, v) {
			t.Fatalf("n=%d: ScaleRow vector %v, Go %v", n, v, g)
		}
		b := make([]float64, n)
		specialRow(rng, b)
		withBoxVec(false, func() { MeanRow(g, g, b, 0.5) })
		withBoxVec(vecSupported, func() { MeanRow(v, v, b, 0.5) })
		if !sameBits(g, v) {
			t.Fatalf("n=%d: MeanRow vector %v, Go %v", n, v, g)
		}
	}
}

// TestBoxFilterColumnsVecMatchesGeneric filters matrices of the TRRS
// widths (1, 3, 2W+1 = 61 and 201) over even and odd windows, windows
// wider than the matrix, and inputs holding ±0, ±Inf and NaN, with the Go
// kernel and the dispatched one, and wants the same bits.
func TestBoxFilterColumnsVecMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, width := range []int{1, 3, 61, 201} {
		for _, rows := range []int{1, 2, 7, 40} {
			src := make([][]float64, rows)
			for i := range src {
				src[i] = make([]float64, width)
				specialRow(rng, src[i])
			}
			for _, v := range []int{0, 1, 2, 3, 16, 17, 30, 2*rows + 3} {
				filter := func() [][]float64 {
					dst := make([][]float64, rows)
					for i := range dst {
						dst[i] = make([]float64, width)
					}
					BoxFilterColumns(dst, src, v/2)
					return dst
				}
				var g, vec [][]float64
				withBoxVec(false, func() { g = filter() })
				withBoxVec(vecSupported, func() { vec = filter() })
				for i := range g {
					if !sameBits(g[i], vec[i]) {
						t.Fatalf("width=%d rows=%d V=%d row %d: vector %v, Go %v", width, rows, v, i, vec[i], g[i])
					}
				}
			}
		}
	}
}

// TestBoxFilterRowsAsksEachRowOnceInOrder checks the on-demand contract
// BoxFilterRows documents: a row is first asked for in increasing order,
// asked for again only while it is among the last 2·half+2 rows made, and
// the result equals BoxFilterColumns over the same rows.
func TestBoxFilterRowsAsksEachRowOnceInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const rows, width = 23, 5
	src := make([][]float64, rows)
	for i := range src {
		src[i] = make([]float64, width)
		specialRow(rng, src[i])
	}
	for half := 0; half <= rows+1; half++ {
		made := -1
		row := func(r int) []float64 {
			switch {
			case r == made+1:
				made = r
			case r > made || r < made-(2*half+1):
				t.Fatalf("half=%d: asked for row %d after making rows up to %d", half, r, made)
			}
			return src[r]
		}
		got, want := make([][]float64, rows), make([][]float64, rows)
		for i := range got {
			got[i], want[i] = make([]float64, width), make([]float64, width)
		}
		BoxFilterRows(got, make([]float64, width), half, row)
		BoxFilterColumns(want, src, half)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("half=%d row %d: %v, want %v", half, i, got[i], want[i])
			}
		}
	}
}
