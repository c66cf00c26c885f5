package align

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rim/internal/trrs"
)

// randomMatrix builds a TRRS matrix with values in [0, 1].
func randomMatrix(rng *rand.Rand, slots, w int) *trrs.Matrix {
	m := &trrs.Matrix{W: w, Rate: 100}
	for t := 0; t < slots; t++ {
		row := make([]float64, 2*w+1)
		for c := range row {
			row[c] = rng.Float64()
		}
		m.Vals = append(m.Vals, row)
	}
	return m
}

// Property: the tracked path always stays within the lag window and has
// exactly one lag per slot of the requested range.
func TestTrackPeaksPathBoundsProperty(t *testing.T) {
	f := func(seed int64, slotsRaw, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		slots := 2 + int(slotsRaw%40)
		w := 1 + int(wRaw%12)
		m := randomMatrix(rng, slots, w)
		tr := TrackPeaks(m, 0, slots, DefaultTrackConfig())
		if len(tr.Lags) != slots || len(tr.Refined) != slots {
			return false
		}
		for k, lag := range tr.Lags {
			if lag < -w || lag > w {
				return false
			}
			if math.Abs(tr.Lag(k)-float64(lag)) > 0.5+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: with zero jump cost disabled fallback and a huge jump cost, the
// tracked path is (almost) constant — the DP must respect its own penalty.
func TestTrackPeaksHugeCostFreezesPath(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 30, 8)
		tr := TrackPeaks(m, 0, 30, TrackConfig{JumpCost: 1e6})
		for i := 1; i < len(tr.Lags); i++ {
			if tr.Lags[i] != tr.Lags[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the DP score never decreases when every matrix value is raised
// by a constant (monotonicity in the data).
func TestTrackPeaksScoreMonotoneProperty(t *testing.T) {
	f := func(seed int64, liftRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 25, 6)
		lift := float64(liftRaw) / 512 // up to ~0.5
		m2 := &trrs.Matrix{W: m.W, Rate: m.Rate}
		for _, row := range m.Vals {
			r2 := make([]float64, len(row))
			for c, v := range row {
				r2[c] = v + lift
			}
			m2.Vals = append(m2.Vals, r2)
		}
		s1 := TrackPeaks(m, 0, 25, DefaultTrackConfig()).Score
		s2 := TrackPeaks(m2, 0, 25, DefaultTrackConfig()).Score
		return s2 >= s1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Segments output is sorted, non-overlapping, within bounds, and
// every reported run respects minLen.
func TestSegmentsInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw, minRaw, gapRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%100) + 1
		minLen := int(minRaw%5) + 1
		maxGap := int(gapRaw % 5)
		flags := make([]bool, n)
		for i := range flags {
			flags[i] = rng.Float64() < 0.5
		}
		segs := Segments(flags, minLen, maxGap)
		prevEnd := -1
		for _, s := range segs {
			if s[0] < 0 || s[1] > n || s[1]-s[0] < minLen {
				return false
			}
			if s[0] <= prevEnd {
				return false
			}
			// Boundary slots must be genuine movement.
			if !flags[s[0]] || !flags[s[1]-1] {
				return false
			}
			prevEnd = s[1]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ThresholdWithHysteresis never reports movement when the
// indicator sits entirely above the trigger threshold, and always reports
// movement for indicators entirely below it.
func TestHysteresisExtremesProperty(t *testing.T) {
	cfg := DefaultMovementConfig()
	f := func(seed int64, high bool) bool {
		rng := rand.New(rand.NewSource(seed))
		ind := make([]float64, 50)
		for i := range ind {
			if high {
				ind[i] = cfg.ReleaseThreshold + 0.01 + 0.05*rng.Float64()
			} else {
				ind[i] = cfg.Threshold - 0.011 - 0.05*rng.Float64()
			}
		}
		flags := ThresholdWithHysteresis(ind, cfg)
		for _, m := range flags {
			if m == high {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: PostCheck confidence is always within [0, 1].
func TestPostCheckRangeProperty(t *testing.T) {
	cfg := DefaultPostCheckConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		tr := &Track{}
		for i := 0; i < n; i++ {
			tr.Lags = append(tr.Lags, rng.Intn(21)-10)
			tr.Vals = append(tr.Vals, rng.Float64())
		}
		c := PostCheck(tr, cfg)
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// preDetectReference is PreDetect as the full-matrix screen: Prominence
// over every row with the documented default guard (a fifth of the lag
// window, clamped to [2, 10]), then the peaked fraction of [start, end).
func preDetectReference(m *trrs.Matrix, start, end int, cfg PreDetectConfig) (float64, bool) {
	start, end = max(start, 0), min(end, m.NumSlots())
	if end <= start {
		return 0, false
	}
	guard := m.W / 5
	if guard < 2 {
		guard = 2
	}
	if guard > 10 {
		guard = 10
	}
	prom := Prominence(m, guard)
	peaked := 0
	for t := start; t < end; t++ {
		if prom[t] >= cfg.MinProminence {
			peaked++
		}
	}
	frac := float64(peaked) / float64(end-start)
	return frac, frac >= cfg.MinFraction
}

// Property: PreDetect, which scores only the window's rows, returns the
// bit-identical fraction and decision of the full-matrix reference on
// random matrices (with planted peaks, across both guard clamps) and
// random, partly out-of-range sub-windows.
func TestPreDetectMatchesFullProminence(t *testing.T) {
	f := func(seed int64, slotsRaw, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		slots := 1 + int(slotsRaw%80)
		w := 1 + int(wRaw%64) // guard W/5 spans below 2, inside, above 10
		m := randomMatrix(rng, slots, w)
		// Plant a peak with a shoulder 1–13 columns away on most rows, so
		// the guard width decides whether the shoulder counts.
		for _, row := range m.Vals {
			if rng.Intn(4) == 0 {
				continue
			}
			for c := range row {
				row[c] *= 0.3
			}
			c := rng.Intn(len(row))
			row[c] = 1
			if s := c + (1+rng.Intn(13))*(1-2*rng.Intn(2)); s >= 0 && s < len(row) {
				row[s] = 0.3 + 0.6*rng.Float64()
			}
		}
		prom := Prominence(m, 0)
		for k := 0; k < 8; k++ {
			start := rng.Intn(slots+10) - 5
			end := start + rng.Intn(slots+10) - 2
			// Half the thresholds sit exactly on a row's prominence.
			cfg := PreDetectConfig{MinProminence: rng.Float64() * 0.8, MinFraction: rng.Float64()}
			if k%2 == 0 {
				cfg.MinProminence = prom[rng.Intn(slots)]
			}
			gf, gok := PreDetect(m, start, end, cfg)
			wf, wok := preDetectReference(m, start, end, cfg)
			if math.Float64bits(gf) != math.Float64bits(wf) || gok != wok {
				t.Logf("seed %d slots %d w %d [%d,%d): got %v/%v, reference %v/%v",
					seed, slots, w, start, end, gf, gok, wf, wok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTrackPeaksAllocsIndependentOfLength: the DP keeps its transition
// scratch and back-pointers in per-call buffers, so a ten-times-longer
// segment makes exactly as many allocations.
func TestTrackPeaksAllocsIndependentOfLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(rng, 400, 15)
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() { TrackPeaks(m, 0, n, DefaultTrackConfig()) })
	}
	short, long := allocs(40), allocs(400)
	t.Logf("TrackPeaks allocations: %v at 40 slots, %v at 400 slots", short, long)
	if long != short {
		t.Errorf("TrackPeaks makes %v allocations at 400 slots, %v at 40: per-slot allocation", long, short)
	}
}
