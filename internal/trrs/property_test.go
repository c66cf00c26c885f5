package trrs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rim/internal/csi"
)

// randomSeries builds a Series with random complex CSI.
func randomSeries(rng *rand.Rand, ants, tx, sub, slots int) *csi.Series {
	s := &csi.Series{
		Rate: 100, NumAnts: ants, NumTx: tx, NumSub: sub,
		H:       make([][][][]complex128, ants),
		Missing: make([][]bool, ants),
	}
	for a := 0; a < ants; a++ {
		s.H[a] = make([][][]complex128, tx)
		s.Missing[a] = make([]bool, slots)
		for t := 0; t < tx; t++ {
			s.H[a][t] = make([][]complex128, slots)
			for sl := 0; sl < slots; sl++ {
				v := make([]complex128, sub)
				for k := range v {
					v[k] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				s.H[a][t][sl] = v
			}
		}
	}
	return s
}

// Property: the TRRS (Eq. 3) always lies in [0, 1] and equals 1 on the
// diagonal, for arbitrary CSI.
func TestBaseRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSeries(rng, 2, 2, 8, 6)
		e := NewEngine(s)
		for ti := 0; ti < 6; ti++ {
			for tj := 0; tj < 6; tj++ {
				k := e.Base(0, 1, ti, tj)
				if k < -1e-12 || k > 1+1e-9 {
					return false
				}
			}
			if d := e.Base(0, 0, ti, ti); d < 1-1e-9 || d > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: TRRS is invariant to a global complex scaling of either
// snapshot (the |·| in Eq. 2 and normalization remove gain and phase).
func TestBaseScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64, reRaw, imRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSeries(rng, 2, 1, 8, 2)
		e1 := NewEngine(s)
		k1 := e1.Base(0, 1, 0, 1)
		// Scale antenna 0's snapshot by an arbitrary non-zero complex.
		c := complex(float64(reRaw)/16+2, float64(imRaw)/16)
		for k := range s.H[0][0][0] {
			s.H[0][0][0][k] *= c
		}
		e2 := NewEngine(s)
		k2 := e2.Base(0, 1, 0, 1)
		return absf(k1-k2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: virtual-massive averaging preserves the [0, 1] range and the
// average of averages equals the average of the underlying values (the box
// filter is linear).
func TestVirtualMassiveRangeProperty(t *testing.T) {
	f := func(seed int64, vRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSeries(rng, 2, 1, 6, 12)
		e := NewEngine(s)
		base := e.BaseMatrix(0, 1, 4)
		v := 1 + int(vRaw%10)
		boosted, err := VirtualMassive(base, v)
		if err != nil {
			return false
		}
		for _, row := range boosted.Vals {
			for _, val := range row {
				if val < -1e-12 || val > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: AverageMatricesInto of k copies of one matrix is that matrix.
func TestAverageIdempotentProperty(t *testing.T) {
	f := func(seed int64, copies uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSeries(rng, 2, 1, 6, 8)
		e := NewEngine(s)
		m := e.BaseMatrix(0, 1, 3)
		n := 1 + int(copies%4)
		ms := make([]*Matrix, n)
		for i := range ms {
			ms[i] = m
		}
		avg, err := AverageMatricesInto(nil, ms...)
		if err != nil {
			return false
		}
		for t1 := range m.Vals {
			for c := range m.Vals[t1] {
				if absf(avg.Vals[t1][c]-m.Vals[t1][c]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the amplitude engine is invariant to per-snapshot phase ramps
// (it discards phase entirely).
func TestAmplitudeEnginePhaseBlindProperty(t *testing.T) {
	f := func(seed int64, slope int8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSeries(rng, 1, 1, 10, 2)
		k1 := NewAmplitudeEngine(s).Base(0, 0, 0, 1)
		// Rotate every tone of snapshot 1 by a tone-dependent phase.
		sl := float64(slope) / 40
		for k := range s.H[0][0][1] {
			ph := complex(0, sl*float64(k))
			s.H[0][0][1][k] *= cexp(ph)
		}
		k2 := NewAmplitudeEngine(s).Base(0, 0, 0, 1)
		return absf(k1-k2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func cexp(z complex128) complex128 {
	// exp(i·im) with re(z)=0
	s, c := math.Sincos(imag(z))
	return complex(c, s)
}
