package trrs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Independent oracles for the symmetry deduplication in BaseMatrices: the
// reflection identity κ̄(Hᵢ(t), Hⱼ(t−l)) == base_{j,i}[t−l][−l] and the
// self-pair lag symmetry, each checked against matrices computed entirely
// without shortcuts (BaseMatrixSerial sweeps every entry of every pair).

// TestReflectionIdentityProperty: for random CSI, the point-wise Hermitian
// identity holds bit for bit, and a reversed pair derived by reflection in
// BaseMatrices equals its from-scratch serial matrix bit for bit — at
// serial and parallel worker counts.
func TestReflectionIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSeries(rng, 3, 2, 8+rng.Intn(9), 30+rng.Intn(40))
		e := NewEngine(s)
		w := 5 + rng.Intn(10)

		// Point-wise: κ̄(Hᵢ(t), Hⱼ(t′)) == κ̄(Hⱼ(t′), Hᵢ(t)), same bits.
		for n := 0; n < 50; n++ {
			i, j := rng.Intn(3), rng.Intn(3)
			ti, tj := rng.Intn(s.NumSlots()), rng.Intn(s.NumSlots())
			a, b := e.Base(i, j, ti, tj), e.Base(j, i, tj, ti)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Logf("seed %d: κ̄(%d@%d, %d@%d)=%x but reversed=%x", seed, i, j, ti, tj,
					math.Float64bits(a), math.Float64bits(b))
				return false
			}
		}

		// Matrix-level: the reflected twin from one BaseMatrices call must
		// be bitwise the reversed pair's full serial computation, and the
		// matrix entries must satisfy base_{j,i}[t][l] == base_{i,j}[t−l][−l].
		for _, par := range []int{1, 3} {
			e.par = par
			ms := e.BaseMatrices([]PairSpec{{I: 0, J: 2}, {I: 2, J: 0}}, w)
			requireIdentical(t, "forward", e.BaseMatrixSerial(0, 2, w), ms[0])
			requireIdentical(t, "reflected", e.BaseMatrixSerial(2, 0, w), ms[1])
			fwd, rev := ms[0], ms[1]
			for n := 0; n < 200; n++ {
				tt, l := rng.Intn(s.NumSlots()), rng.Intn(2*w+1)-w
				if math.Float64bits(rev.At(tt, l)) != math.Float64bits(fwd.At(tt-l, -l)) {
					t.Logf("seed %d par %d: base_ji[%d][%d]=%x base_ij[%d][%d]=%x", seed, par, tt, l,
						math.Float64bits(rev.At(tt, l)), tt-l, -l, math.Float64bits(fwd.At(tt-l, -l)))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestSelfPairLagSymmetryProperty: a self-pair matrix from BaseMatrices
// (computed over the non-negative half-band and reflected) equals the
// shortcut-free serial computation bit for bit, and satisfies the lag
// symmetry m[t][l] == m[t−l][−l] wherever both slots are in range.
func TestSelfPairLagSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSeries(rng, 2, 1+rng.Intn(2), 6+rng.Intn(12), 25+rng.Intn(30))
		e := NewEngine(s)
		w := 4 + rng.Intn(12)
		for _, par := range []int{1, 3} {
			e.par = par
			m := e.BaseMatrices([]PairSpec{{I: 1, J: 1}}, w)[0]
			requireIdentical(t, "self", e.BaseMatrixSerial(1, 1, w), m)
			for tt := 0; tt < s.NumSlots(); tt++ {
				for l := -w; l <= w; l++ {
					if math.Float64bits(m.At(tt, l)) != math.Float64bits(m.At(tt-l, -l)) {
						t.Logf("seed %d par %d: self[%d][%d]=%x self[%d][%d]=%x", seed, par, tt, l,
							math.Float64bits(m.At(tt, l)), tt-l, -l, math.Float64bits(m.At(tt-l, -l)))
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestBaseMatricesDedupAliasing: exact duplicates in one request share one
// matrix; mixed requests (duplicates + reversals + self-pairs) all come
// back bitwise-correct in the requested order.
func TestBaseMatricesDedupAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := randomSeries(rng, 3, 2, 16, 60)
	e := NewEngine(s)
	const w = 9
	pairs := []PairSpec{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}, {2, 1}, {2, 2}}
	ms := e.BaseMatrices(pairs, w)
	if ms[0] != ms[2] || ms[3] != ms[6] {
		t.Fatal("exact duplicate pairs must alias one matrix")
	}
	for k, p := range pairs {
		if ms[k].I != p.I || ms[k].J != p.J {
			t.Fatalf("pair %d: identity (%d,%d), want (%d,%d)", k, ms[k].I, ms[k].J, p.I, p.J)
		}
		requireIdentical(t, "mixed", e.BaseMatrixSerial(p.I, p.J, w), ms[k])
	}
}
