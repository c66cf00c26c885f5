package sigproc

import (
	"math"
	"math/rand"
	"testing"
)

// splitSoA32 converts an AoS complex vector to float32 SoA planes.
func splitSoA32(a []complex128) (re, im []float32) {
	re = make([]float32, len(a))
	im = make([]float32, len(a))
	for k, c := range a {
		re[k] = float32(real(c))
		im[k] = float32(imag(c))
	}
	return re, im
}

// sweepPlanes builds SoA planes holding `slots` consecutive snapshots of
// `tones` tones each, exactly the layout the TRRS engine sweeps.
func sweepPlanes(rng *rand.Rand, slots, tones int) (re, im []float64) {
	re = make([]float64, slots*tones)
	im = make([]float64, slots*tones)
	for k := range re {
		re[k] = rng.NormFloat64()
		im[k] = rng.NormFloat64()
	}
	return re, im
}

// TestDotSqSweepSoAMatchesScalar compares the sweep (assembly on amd64,
// generic elsewhere) against per-slot DotSqSoA across every tail class and
// both stride signs, including the engine's lag-sweep stride of -tones.
// The vector reduction reassociates, so the gate is 1e-12 relative — the
// same bound the opt-in trrs kernels carry.
func TestDotSqSweepSoAMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const slots = 9
	for tones := 0; tones <= 33; tones++ {
		ar, ai := sweepPlanes(rng, 1, tones)
		br, bi := sweepPlanes(rng, slots, tones)
		for _, stride := range []int{tones, -tones} {
			off := 0
			if stride < 0 {
				off = (slots - 1) * tones
			}
			out := make([]float64, slots)
			DotSqSweepSoA(out, ar, ai, br, bi, off, stride, tones)
			for k := 0; k < slots; k++ {
				o := off + k*stride
				want := DotSqSoA(ar, ai, br[o:o+tones], bi[o:o+tones])
				tol := 1e-12 * math.Max(math.Abs(want), 1)
				if math.Abs(out[k]-want) > tol {
					t.Fatalf("tones=%d stride=%d k=%d: sweep %v vs scalar %v",
						tones, stride, k, out[k], want)
				}
			}
		}
	}
}

// TestDotSqSweepSoAAccumulates verifies the += contract: the sweep adds
// into out, it does not overwrite. The per-tx TRRS accumulation depends on
// this.
func TestDotSqSweepSoAAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const slots, tones = 5, 30
	ar, ai := sweepPlanes(rng, 1, tones)
	br, bi := sweepPlanes(rng, slots, tones)
	base := make([]float64, slots)
	for k := range base {
		base[k] = float64(k + 1)
	}
	out := append([]float64(nil), base...)
	DotSqSweepSoA(out, ar, ai, br, bi, 0, tones, tones)
	for k := 0; k < slots; k++ {
		want := base[k] + DotSqSoA(ar, ai, br[k*tones:(k+1)*tones], bi[k*tones:(k+1)*tones])
		tol := 1e-12 * math.Max(math.Abs(want), 1)
		if math.Abs(out[k]-want) > tol {
			t.Fatalf("k=%d: %v, want %v", k, out[k], want)
		}
	}
}

// TestDotSqSweepSoA32Tolerance bounds the float32 sweep against the
// float64 scalar oracle. A unit-normalized 30-tone inner product carries
// ~1e-7 relative error in float32; the gate here is 1e-5 on normalized
// snapshots, the same budget the trrs precision suite enforces at matrix
// level.
func TestDotSqSweepSoA32Tolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const slots = 7
	for tones := 1; tones <= 33; tones++ {
		a := randVec(rng, tones)
		ar, ai := splitSoA(a)
		NormalizeSoA(ar, ai)
		br := make([]float64, slots*tones)
		bi := make([]float64, slots*tones)
		for s := 0; s < slots; s++ {
			b := randVec(rng, tones)
			sr, si := splitSoA(b)
			NormalizeSoA(sr, si)
			copy(br[s*tones:], sr)
			copy(bi[s*tones:], si)
		}
		ar32 := make([]float32, tones)
		ai32 := make([]float32, tones)
		for k := 0; k < tones; k++ {
			ar32[k], ai32[k] = float32(ar[k]), float32(ai[k])
		}
		br32 := make([]float32, slots*tones)
		bi32 := make([]float32, slots*tones)
		for k := range br {
			br32[k], bi32[k] = float32(br[k]), float32(bi[k])
		}
		out := make([]float64, slots)
		off := (slots - 1) * tones
		DotSqSweepSoA32(out, ar32, ai32, br32, bi32, off, -tones, tones)
		for k := 0; k < slots; k++ {
			o := off - k*tones
			want := DotSqSoA(ar, ai, br[o:o+tones], bi[o:o+tones])
			tol := 1e-5 * math.Max(math.Abs(want), 1)
			if math.Abs(out[k]-want) > tol {
				t.Fatalf("tones=%d k=%d: f32 sweep %v vs f64 %v (diff %g)",
					tones, k, out[k], want, out[k]-want)
			}
		}
	}
}

// TestDotSqSweepMatchesGeneric cross-checks the dispatched implementation
// (assembly where available) against the portable generic directly on the
// same inputs.
func TestDotSqSweepMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const slots, tones = 11, 29
	ar, ai := sweepPlanes(rng, 1, tones)
	br, bi := sweepPlanes(rng, slots, tones)
	got := make([]float64, slots)
	want := make([]float64, slots)
	off := (slots - 1) * tones
	dotSqSweep(got, ar, ai, br, bi, off, -tones, tones)
	dotSqSweepGeneric(want, ar, ai, br, bi, off, -tones, tones)
	for k := range got {
		tol := 1e-12 * math.Max(math.Abs(want[k]), 1)
		if math.Abs(got[k]-want[k]) > tol {
			t.Fatalf("k=%d: dispatch %v vs generic %v", k, got[k], want[k])
		}
	}
	if VecSupported() {
		t.Logf("vector sweep backend active (AVX2+FMA)")
	} else {
		t.Logf("scalar sweep fallback active")
	}
}

// TestDotSqSweepBoundsPanic checks the geometry contract: any b_k block
// escaping the planes must panic rather than read out of bounds.
func TestDotSqSweepBoundsPanic(t *testing.T) {
	const slots, tones = 4, 8
	ar := make([]float64, tones)
	ai := make([]float64, tones)
	br := make([]float64, slots*tones)
	bi := make([]float64, slots*tones)
	out := make([]float64, slots)
	cases := []struct {
		name        string
		off, stride int
		count       int
	}{
		{"negative off", -1, tones, slots},
		{"tail past end", 1, tones, slots},
		{"negative stride underflow", 0, -tones, 2},
		{"count past end", 0, tones, slots + 1},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			DotSqSweepSoA(out[:tc.count], ar, ai, br, bi, tc.off, tc.stride, tones)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("short a plane: expected panic")
			}
		}()
		DotSqSweepSoA(out, ar[:tones-1], ai, br, bi, 0, tones, tones)
	}()
}

// TestDotSqSoA32Tolerance bounds the scalar float32 kernel on normalized
// inputs and checks the shape contract.
func TestDotSqSoA32Tolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for n := 1; n <= 64; n++ {
		a, b := randVec(rng, n), randVec(rng, n)
		ar, ai := splitSoA(a)
		br, bi := splitSoA(b)
		NormalizeSoA(ar, ai)
		NormalizeSoA(br, bi)
		ar32, ai32 := make([]float32, n), make([]float32, n)
		br32, bi32 := make([]float32, n), make([]float32, n)
		for k := 0; k < n; k++ {
			ar32[k], ai32[k] = float32(ar[k]), float32(ai[k])
			br32[k], bi32[k] = float32(br[k]), float32(bi[k])
		}
		want := DotSqSoA(ar, ai, br, bi)
		got := DotSqSoA32(ar32, ai32, br32, bi32)
		tol := 1e-5 * math.Max(math.Abs(want), 1)
		if math.Abs(got-want) > tol {
			t.Fatalf("n=%d: f32 %v vs f64 %v", n, got, want)
		}
	}
	if DotSqSoA32(nil, nil, nil, nil) != 0 {
		t.Fatal("empty float32 dot must be 0")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("DotSqSoA32 must panic on length mismatch")
			}
		}()
		DotSqSoA32(make([]float32, 3), make([]float32, 3), make([]float32, 3), make([]float32, 2))
	}()
}

// TestNormalizeSoA32 checks unit energy after normalization, the returned
// norm against the float64 path, and the zero-vector no-op.
func TestNormalizeSoA32(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for n := 1; n <= 40; n++ {
		a := randVec(rng, n)
		ar, ai := splitSoA(a)
		ar32, ai32 := splitSoA32(a)
		wantNorm := NormalizeSoA(ar, ai)
		gotNorm := NormalizeSoA32(ar32, ai32)
		if math.Abs(gotNorm-wantNorm) > 1e-5*math.Max(wantNorm, 1) {
			t.Fatalf("n=%d: norm %v vs %v", n, gotNorm, wantNorm)
		}
		if e := EnergySoA32(ar32, ai32); math.Abs(e-1) > 1e-5 {
			t.Fatalf("n=%d: post-normalize energy %v", n, e)
		}
	}
	zr, zi := make([]float32, 5), make([]float32, 5)
	if NormalizeSoA32(zr, zi) != 0 {
		t.Fatal("zero vector must return norm 0")
	}
	if EnergySoA32(zr, zi) != 0 {
		t.Fatal("zero vector energy must stay 0")
	}
}
