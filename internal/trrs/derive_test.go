package trrs

import (
	"math"
	"math/rand"
	"testing"
)

// The three-pass derive is the build Scratch.Derive replaced, kept here
// verbatim as its oracle: each reversed twin reflected into a matrix of
// its own, the group's pair average into another, then the
// virtual-massive box filter over the average in three row passes (write
// the output row, add the entering row, subtract the leaving one).

// threePassReflect is the reversed twin of src, reflected entry by entry.
func threePassReflect(src *Matrix) *Matrix {
	w := src.W
	m := newMatrix(src.J, src.I, w, len(src.Vals), src.Rate)
	for t, row := range m.Vals {
		for c := range row {
			if srcT := t - (c - w); srcT >= 0 && srcT < len(src.Vals) {
				row[c] = src.Vals[srcT][2*w-c]
			} else {
				row[c] = 0
			}
		}
	}
	return m
}

// threePassAverage is the element-wise mean of ms.
func threePassAverage(ms []*Matrix) *Matrix {
	first := ms[0]
	width := 2*first.W + 1
	out := newMatrix(first.I, first.J, first.W, len(first.Vals), first.Rate)
	inv := 1 / float64(len(ms))
	for t := range out.Vals {
		row := out.Vals[t]
		copy(row, ms[0].Vals[t])
		for _, m := range ms[1:] {
			src := m.Vals[t]
			for c := 0; c < width; c++ {
				row[c] += src[c]
			}
		}
		for c := 0; c < width; c++ {
			row[c] *= inv
		}
	}
	return out
}

// threePassBoxFilter is the box filter in three row passes.
func threePassBoxFilter(dst, src [][]float64, half int) {
	t := len(src)
	if t == 0 {
		return
	}
	l := len(src[0])
	if half <= 0 {
		for i := range src {
			copy(dst[i], src[i])
		}
		return
	}
	sums := make([]float64, l)
	count := 0
	for i := 0; i <= half && i < t; i++ {
		for j := 0; j < l; j++ {
			sums[j] += src[i][j]
		}
		count++
	}
	for i := 0; i < t; i++ {
		inv := 1 / float64(count)
		for j := 0; j < l; j++ {
			dst[i][j] = sums[j] * inv
		}
		add := i + half + 1
		if add < t {
			row := src[add]
			for j := 0; j < l; j++ {
				sums[j] += row[j]
			}
			count++
		}
		rem := i - half
		if rem >= 0 {
			row := src[rem]
			for j := 0; j < l; j++ {
				sums[j] -= row[j]
			}
			count--
		}
	}
}

// threePassDerive is the oracle of Scratch.Derive.
func threePassDerive(ins []Input, v int) *Matrix {
	ms := make([]*Matrix, len(ins))
	for k, in := range ins {
		ms[k] = in.M
		if in.Twin {
			ms[k] = threePassReflect(in.M)
		}
	}
	avg := ms[0]
	if len(ms) > 1 {
		avg = threePassAverage(ms)
	}
	out := newMatrix(avg.I, avg.J, avg.W, len(avg.Vals), avg.Rate)
	threePassBoxFilter(out.Vals, avg.Vals, v/2)
	return out
}

// deriveMatrix is a random base matrix of pair (i, j) holding TRRS-like
// values in [0, 1) and, when special is set, ±0, ±Inf and NaN at random
// entries.
func deriveMatrix(rng *rand.Rand, i, j, w, slots int, special bool) *Matrix {
	m := newMatrix(i, j, w, slots, 100)
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for _, row := range m.Vals {
		for c := range row {
			row[c] = rng.Float64()
			if special && rng.Intn(6) == 0 {
				row[c] = specials[rng.Intn(len(specials))]
			}
		}
	}
	return m
}

// requireDeriveBits fails unless got is the oracle's matrix bit for bit,
// identity included. NaN payloads aside: which of two NaNs an add returns
// is not defined in Go (see sigproc's box kernel).
func requireDeriveBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.I != want.I || got.J != want.J || got.W != want.W || got.Rate != want.Rate || len(got.Vals) != len(want.Vals) {
		t.Fatalf("%s: matrix (%d,%d) W=%d %v Hz %d slots, want (%d,%d) W=%d %v Hz %d slots", what,
			got.I, got.J, got.W, got.Rate, len(got.Vals), want.I, want.J, want.W, want.Rate, len(want.Vals))
	}
	for ti, row := range want.Vals {
		for c, wv := range row {
			if gv := got.Vals[ti][c]; math.Float64bits(gv) != math.Float64bits(wv) && !(math.IsNaN(gv) && math.IsNaN(wv)) {
				t.Fatalf("%s [%d][%d]: %v (%#x), want %v (%#x)", what, ti, c, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
			}
		}
	}
}

// deriveShapes are the input lists the cases run: a lone pair (a ring
// pair, or a one-pair group), a lone reversed twin (the hexagon's three
// twin ring pairs), pair averages, and averages holding twins.
var deriveShapes = []struct {
	name  string
	twins []bool
}{
	{"one", []bool{false}},
	{"twin", []bool{true}},
	{"pair", []bool{false, false}},
	{"pair+twin", []bool{false, true}},
	{"twin+pair", []bool{true, false}},
	{"three", []bool{false, true, false}},
}

// deriveCase builds the inputs of one shape.
func deriveCase(rng *rand.Rand, twins []bool, w, slots int, special bool) []Input {
	ins := make([]Input, len(twins))
	for k, twin := range twins {
		ins[k] = Input{M: deriveMatrix(rng, k, k+1, w, slots, special), Twin: twin}
	}
	return ins
}

// TestDeriveMatchesThreePass compares the one-pass derive against the
// three-pass oracle bit for bit: widths 1, 3, 61 and 201, even and odd
// V, V wider than the matrix, row counts below W (where a twin's rows
// are mostly the out-of-range +0), ±0, ±Inf and NaN inputs, through a
// reused scratch (its ring and arena left dirty by the previous case)
// and through a nil one. The kernel's forced Go path against AVX2 is
// TestBoxStepVecMatchesGeneric and TestBoxFilterColumnsVecMatchesGeneric
// in internal/sigproc.
func TestDeriveMatchesThreePass(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var scr Scratch
	for _, w := range []int{0, 1, 30, 100} {
		for _, slots := range []int{0, 1, 3, 37, 150} {
			for _, sh := range deriveShapes {
				for _, special := range []bool{false, true} {
					ins := deriveCase(rng, sh.twins, w, slots, special)
					for _, v := range []int{0, 1, 2, 3, 16, 17, 30, 31, 2*slots + 5} {
						want := threePassDerive(ins, v)
						scr.Arena.Reset()
						got, err := scr.Derive(ins, v)
						if err != nil {
							t.Fatal(err)
						}
						requireDeriveBits(t, "scratch "+sh.name, got, want)
						got, err = (*Scratch)(nil).Derive(ins, v)
						if err != nil {
							t.Fatal(err)
						}
						requireDeriveBits(t, "nil scratch "+sh.name, got, want)
					}
				}
			}
		}
	}
}

// TestDeriveEntryPointsMatchThreePass pins the kept entry points on the
// same kernel: AverageMatricesInto against the oracle's average and
// VirtualMassiveInto against its box filter, bit for bit.
func TestDeriveEntryPointsMatchThreePass(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var a MatrixArena
	for _, w := range []int{0, 1, 30} {
		for _, n := range []int{1, 2, 3} {
			ms := make([]*Matrix, n)
			for k := range ms {
				ms[k] = deriveMatrix(rng, k, k+1, w, 41, true)
			}
			got, err := AverageMatricesInto(&a, ms...)
			if err != nil {
				t.Fatal(err)
			}
			requireDeriveBits(t, "AverageMatricesInto", got, threePassAverage(ms))
			for _, v := range []int{1, 16, 17, 100} {
				vm, err := VirtualMassiveInto(&a, ms[0], v)
				if err != nil {
					t.Fatal(err)
				}
				want := newMatrix(ms[0].I, ms[0].J, w, 41, 100)
				threePassBoxFilter(want.Vals, ms[0].Vals, v/2)
				requireDeriveBits(t, "VirtualMassiveInto", vm, want)
			}
		}
	}
}

// TestDeriveRejectsMismatchedInputs wants Derive and CheckDerive to
// refuse what AverageMatricesInto refuses, plus a negative window.
func TestDeriveRejectsMismatchedInputs(t *testing.T) {
	ok := &Matrix{W: 1, Rate: 10, Vals: [][]float64{{1, 2, 3}}}
	for name, ins := range map[string][]Input{
		"none":      nil,
		"nil":       {{M: ok}, {}},
		"window":    {{M: ok}, {M: &Matrix{W: 2, Rate: 10, Vals: [][]float64{{1, 2, 3, 4, 5}}}}},
		"rate":      {{M: ok}, {M: &Matrix{W: 1, Rate: 20, Vals: [][]float64{{1, 2, 3}}}, Twin: true}},
		"slots":     {{M: ok}, {M: &Matrix{W: 1, Rate: 10, Vals: [][]float64{{1, 2, 3}, {4, 5, 6}}}}},
		"ragged":    {{M: &Matrix{W: 1, Rate: 10, Vals: [][]float64{{1, 2}}}}},
		"negativeW": {{M: &Matrix{W: -1, Rate: 10}}},
	} {
		if err := CheckDerive(ins); err == nil {
			t.Errorf("%s: CheckDerive accepted it", name)
		}
		if _, err := (&Scratch{}).Derive(ins, 4); err == nil {
			t.Errorf("%s: Derive accepted it", name)
		}
	}
}

// FuzzDerive fuzzes the one-pass derive against the three-pass oracle:
// the fuzzer picks the width class, the row count, V, the input list
// (pairs and twins, up to four) and how many entries are ±0, ±Inf or NaN.
func FuzzDerive(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(37), uint8(16), uint8(0x5), false)
	f.Add(int64(2), uint8(3), uint8(120), uint8(31), uint8(0x2), true)
	f.Add(int64(3), uint8(1), uint8(2), uint8(200), uint8(0x1a), true)
	f.Add(int64(4), uint8(0), uint8(9), uint8(3), uint8(0x1), false)
	f.Fuzz(func(t *testing.T, seed int64, widthB, slotsB, vB, shapeB uint8, special bool) {
		w := []int{0, 1, 30, 100}[widthB%4]
		slots := int(slotsB) % 160
		v := int(vB)
		n := 1 + int(shapeB&3)
		twins := make([]bool, n)
		for k := range twins {
			twins[k] = shapeB>>(2+k)&1 != 0
		}
		rng := rand.New(rand.NewSource(seed))
		ins := deriveCase(rng, twins, w, slots, special)
		got, err := (&Scratch{}).Derive(ins, v)
		if err != nil {
			t.Fatal(err)
		}
		requireDeriveBits(t, "derive", got, threePassDerive(ins, v))
	})
}
