package sigproc

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostF(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func TestInnerProductMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randVec(rng, 33)
	b := randVec(rng, 33)
	var want complex128
	for i := range a {
		want += cmplx.Conj(a[i]) * b[i]
	}
	got := InnerProduct(a, b)
	if cmplx.Abs(got-want) > 1e-9 {
		t.Errorf("InnerProduct = %v, want %v", got, want)
	}
}

func TestInnerProductPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched lengths")
		}
	}()
	InnerProduct(make([]complex128, 2), make([]complex128, 3))
}

func TestEnergyAndNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randVec(rng, 64)
	e := Energy(a)
	if e <= 0 {
		t.Fatal("energy must be positive")
	}
	n := Normalize(a)
	if !almostF(n, math.Sqrt(e), 1e-9) {
		t.Errorf("Normalize returned %v, want %v", n, math.Sqrt(e))
	}
	if !almostF(Energy(a), 1, 1e-9) {
		t.Errorf("post-normalize energy = %v", Energy(a))
	}
	var zero []complex128
	if Normalize(zero) != 0 {
		t.Error("Normalize(nil) != 0")
	}
	z := make([]complex128, 4)
	if Normalize(z) != 0 {
		t.Error("Normalize(zero vector) != 0")
	}
}

func TestInnerProductCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randVec(rng, 16)
		b := randVec(rng, 16)
		lhs := cmplx.Abs(InnerProduct(a, b))
		rhs := math.Sqrt(Energy(a) * Energy(b))
		return lhs <= rhs*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestApplyPhaseRamp(t *testing.T) {
	n := 32
	a := make([]complex128, n)
	for i := range a {
		a[i] = 1
	}
	offset, slope := 0.7, 0.05
	ApplyPhaseRamp(a, offset, slope)
	for k := range a {
		wantPh := offset + slope*float64(k)
		if !almostF(cmplx.Phase(a[k]), math.Mod(wantPh+math.Pi, 2*math.Pi)-math.Pi, 1e-6) {
			t.Fatalf("phase[%d] = %v, want %v", k, cmplx.Phase(a[k]), wantPh)
		}
		if !almostF(cmplx.Abs(a[k]), 1, 1e-9) {
			t.Fatalf("ramp changed magnitude at %d", k)
		}
	}
}

func TestConjAndHelpers(t *testing.T) {
	a := []complex128{1 + 1i, 2 - 3i}
	c := Conj(a)
	if c[0] != 1-1i || c[1] != 2+3i {
		t.Errorf("Conj = %v", c)
	}
}

// TRRS identity: the DFT is unitary, so the frequency-domain TRRS (Eq. 2)
// equals the zero-lag term of the time-domain definition (Eq. 1), whose
// full convolution h1*g2 with g2[k] = conj(h2[T-1-k]) reads sum conj(h2)h1
// at lag 0.
func TestTimeFreqTRRSEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h1 := randVec(rng, 16)
	h2 := randVec(rng, 16)
	zeroLag := cmplx.Abs(InnerProduct(h2, h1))
	kZero := zeroLag * zeroLag / (Energy(h1) * Energy(h2))
	// Frequency domain (Eq. 2) on the DFTs of h1, h2.
	H1 := FFT(h1)
	H2 := FFT(h2)
	ip := cmplx.Abs(InnerProduct(H1, H2))
	kFreq := ip * ip / (Energy(H1) * Energy(H2))
	if !almostF(kZero, kFreq, 1e-9) {
		t.Errorf("zero-lag time TRRS %v != freq TRRS %v", kZero, kFreq)
	}
}
