package trrs

import (
	"math"
	"math/rand"
	"testing"

	"rim/internal/csi"
	"rim/internal/sigproc"
)

// aosRef is an independent reference implementation of the TRRS engine in
// the seed's array-of-structs layout: per-slot []complex128 vectors
// normalized by sigproc.Normalize, κ̄ evaluated with sigproc.InnerProduct.
// The SoA engine's default kernel must reproduce it bit for bit — this
// pins the layout conversion to the original arithmetic independently of
// the golden suites (which compare SoA paths against each other).
type aosRef struct {
	norm  [][][][]complex128
	slots int
	numTx int
}

func newAoSRef(s *csi.Series, amplitude bool) *aosRef {
	r := &aosRef{slots: s.NumSlots(), numTx: s.NumTx, norm: make([][][][]complex128, s.NumAnts)}
	for a := 0; a < s.NumAnts; a++ {
		r.norm[a] = make([][][]complex128, s.NumTx)
		for tx := 0; tx < s.NumTx; tx++ {
			r.norm[a][tx] = make([][]complex128, r.slots)
			for t := 0; t < r.slots; t++ {
				src := s.H[a][tx][t]
				v := make([]complex128, len(src))
				if amplitude {
					for k, c := range src {
						re, im := real(c), imag(c)
						v[k] = complex(math.Sqrt(re*re+im*im), 0)
					}
				} else {
					copy(v, src)
				}
				sigproc.Normalize(v)
				r.norm[a][tx][t] = v
			}
		}
	}
	return r
}

func (r *aosRef) base(i, j, ti, tj int) float64 {
	if ti < 0 || tj < 0 || ti >= r.slots || tj >= r.slots {
		return 0
	}
	var sum float64
	for tx := 0; tx < r.numTx; tx++ {
		ip := sigproc.InnerProduct(r.norm[i][tx][ti], r.norm[j][tx][tj])
		re, im := real(ip), imag(ip)
		sum += re*re + im*im
	}
	return sum / float64(r.numTx)
}

func (r *aosRef) matrix(i, j, w int) [][]float64 {
	out := make([][]float64, r.slots)
	for t := range out {
		row := make([]float64, 2*w+1)
		for c := range row {
			tj := t - (c - w)
			if tj >= 0 && tj < r.slots {
				row[c] = r.base(i, j, t, tj)
			}
		}
		out[t] = row
	}
	return out
}

// requireMatrixBits asserts a Matrix matches reference rows bit for bit.
func requireMatrixBits(t *testing.T, name string, want [][]float64, got *Matrix) {
	t.Helper()
	if len(got.Vals) != len(want) {
		t.Fatalf("%s: %d slots, want %d", name, len(got.Vals), len(want))
	}
	for ti := range want {
		for c := range want[ti] {
			w, g := want[ti][c], got.Vals[ti][c]
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("%s: [%d][%d] = %x, want %x (must be bit-identical)",
					name, ti, c, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// TestSoAEngineMatchesSeedArithmetic pins the SoA engine's default kernel
// to the seed's []complex128 arithmetic, bit for bit: full base matrices
// (including self-pairs, exercising the half-band reflection), point Base
// queries including out-of-range slots, and the amplitude-ablation
// normalization.
func TestSoAEngineMatchesSeedArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct {
		name string
		s    *csi.Series
	}{
		{"random", randomSeries(rng, 3, 2, 30, 120)},
		{"walk", walkSeries(t, false)},
	} {
		ref := newAoSRef(tc.s, false)
		e := NewEngine(tc.s)
		w := 20
		for _, pair := range [][2]int{{0, 2}, {2, 0}, {1, 1}} {
			got := e.BaseMatrixSerial(pair[0], pair[1], w)
			want := ref.matrix(pair[0], pair[1], w)
			requireMatrixBits(t, tc.name, want, got)
		}
		for _, q := range [][4]int{{0, 1, 0, 0}, {1, 0, 5, 17}, {0, 2, 119, 3}, {0, 1, -1, 4}, {0, 1, 4, tc.s.NumSlots()}} {
			want := ref.base(q[0], q[1], q[2], q[3])
			got := e.Base(q[0], q[1], q[2], q[3])
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("%s: Base%v = %x, want %x", tc.name, q, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}

	s := randomSeries(rng, 2, 2, 16, 40)
	ampRef := newAoSRef(s, true)
	ampEng := NewAmplitudeEngine(s)
	for ti := 0; ti < 40; ti += 7 {
		for tj := 0; tj < 40; tj += 5 {
			want := ampRef.base(0, 1, ti, tj)
			got := ampEng.Base(0, 1, ti, tj)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("amplitude: Base(0,1,%d,%d) = %x, want %x", ti, tj, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestKernelString pins the kernel names the -kernel flags accept: ""
// (the vector default) and every selector's String() round-trip through ParseKernel, the
// removed 4- and 8-accumulator scalar kernels are rejected, and an
// unknown selector still renders.
func TestKernelString(t *testing.T) {
	for name, want := range map[string]Kernel{"": KernelVector, "sequential": KernelSequential, "vector": KernelVector} {
		k, err := ParseKernel(name)
		if err != nil || k != want {
			t.Fatalf("ParseKernel(%q) = %v, %v; want %v", name, k, err, want)
		}
		if name != "" && k.String() != name {
			t.Fatalf("kernel name drifted: %v.String() = %q, want %q", want, k.String(), name)
		}
	}
	for _, acc := range []string{"4", "8"} {
		if _, err := ParseKernel("unrolled" + acc); err == nil {
			t.Fatalf("ParseKernel(%q) must fail: the kernel was removed", "unrolled"+acc)
		}
	}
	if Kernel(9).String() == "" {
		t.Fatal("unknown kernel must still render")
	}
}
