package core

import (
	"math"
	"testing"

	"rim/internal/array"
	"rim/internal/faults"
	"rim/internal/geom"
	"rim/internal/traj"
)

// FuzzZUPTIntervals drives ZUPT extraction over fault-injected walks: bursty
// packet loss, a dead RF chain and corrupt/NaN frames in fuzzer-chosen
// combinations. Whatever the faults do to the CSI, the pipeline must not
// panic and the extracted zero-velocity intervals must keep their contract —
// ordered, non-overlapping, minimum length, in range, confidence in [0, 1].
func FuzzZUPTIntervals(f *testing.F) {
	f.Add(int64(1), 0.0, uint8(0), int8(-1), 0.0)    // clean walk
	f.Add(int64(7), 0.3, uint8(20), int8(-1), 0.0)   // bursty loss
	f.Add(int64(3), 0.0, uint8(0), int8(1), 0.0)     // dead middle antenna
	f.Add(int64(11), 0.5, uint8(40), int8(2), 0.05)  // loss + dropout + corruption
	f.Add(int64(-4), 0.89, uint8(255), int8(0), 0.3) // near-total loss, antenna 0 dead
	f.Fuzz(func(t *testing.T, seed int64, loss float64, burst uint8, deadAnt int8, corrupt float64) {
		rate := 50.0
		arr := array.NewLinear3(spacing)
		b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
		b.Pause(0.6)
		b.MoveDir(0, 0.6, 0.4)
		b.Pause(0.6)
		tr := b.Build()

		fm := &faults.Model{Seed: seed}
		if loss > 0 && loss < 0.9 { // NaN/Inf/out-of-range fall through to no loss
			fm.Loss = faults.NewGilbertElliott(loss, float64(burst%50)+1)
		}
		if deadAnt >= 0 && int(deadAnt) < arr.NumAntennas() {
			fm.Dropouts = []faults.Dropout{{Antenna: int(deadAnt), Start: 0.8}}
		}
		if corrupt > 0 && corrupt <= 0.3 {
			fm.Corrupt = faults.Corruption{Prob: corrupt, NaN: seed%2 == 0}
		}
		series := buildFaultySeries(t, tr, arr, seed, fm)

		cfg := testConfigV20(arr)
		res, err := ProcessSeries(series, cfg)
		if err != nil {
			// A fault combination the pipeline rejects outright is fine —
			// the property under test is "no panic, no malformed intervals".
			return
		}
		checkEstimatesSane(t, res.Estimates)
		minLen := int(zuptMinSeconds * rate)
		checkZUPTInvariants(t, res.ZUPTs, len(res.Estimates), minLen)
		for _, z := range res.ZUPTs {
			if math.IsNaN(z.Confidence) {
				t.Fatalf("NaN confidence: %+v", z)
			}
		}
	})
}
