package core

import (
	"math"
	"math/rand"
	"testing"

	"rim/internal/sigproc"
)

// TestRingCanAgreeCoversEveryPassingSet checks the rotation pre-check
// against the consistency test it stands in for: for random settled
// median lags on rings of 4 to 8 pairs, whenever some set of at least
// rotationMinRingFrac of the pairs (any set the post-check could pass)
// passes tryRotation's consistency check, ringCanAgree must say so, and
// when it says so some set must pass.
func TestRingCanAgreeCoversEveryPassingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	passes := func(lags []float64, need float64) bool {
		gmed := sigproc.Median(lags)
		if math.Abs(gmed) < 2 {
			return false
		}
		consistent := 0
		for _, l := range lags {
			if math.Abs(l-gmed) <= math.Max(3, 0.3*math.Abs(gmed)) {
				consistent++
			}
		}
		return float64(consistent) >= need
	}
	agreed, refused := 0, 0
	for trial := 0; trial < 4000; trial++ {
		m := 4 + rng.Intn(5)
		need := rotationMinRingFrac * float64(m)
		lags := make([]float64, m)
		base := float64(rng.Intn(21) - 10)
		for k := range lags {
			lags[k] = base + float64(rng.Intn(9)-4)
			if rng.Intn(4) == 0 {
				lags[k] = -lags[k]
			}
		}
		any := false
		for mask := 1; mask < 1<<m; mask++ {
			var sub []float64
			for k := range lags {
				if mask&(1<<k) != 0 {
					sub = append(sub, lags[k])
				}
			}
			if float64(len(sub)) >= need && passes(sub, need) {
				any = true
				break
			}
		}
		if got := ringCanAgree(lags, need); got != any {
			t.Fatalf("lags %v (need %.1f): ringCanAgree %v, some passing set %v", lags, need, got, any)
		}
		if any {
			agreed++
		} else {
			refused++
		}
	}
	if agreed == 0 || refused == 0 {
		t.Fatalf("trials never exercised both outcomes: %d agreed, %d refused", agreed, refused)
	}
}
