package align

import (
	"math"
	"testing"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/geom"
	"rim/internal/rf"
	"rim/internal/traj"
	"rim/internal/trrs"
)

// requireSameBits fails unless got and want hold the same float64 bits.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slots, want %d", what, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: slot %d = %v, want %v", what, k, got[k], want[k])
		}
	}
}

// TestMovementIndicatorOnIncrementalView checks movement detection on the
// streaming path: MovementIndicator and MovementIndicators on an
// Incremental's EngineView, whose self-TRRS comes from the engine's cache,
// must be bit-identical to the same calls on a batch engine built over
// the same window and antennas, for the full array and for dead-antenna
// subsets, across an append/drop schedule; and MovementIndicators must
// equal the two separate MovementIndicator calls it replaces.
func TestMovementIndicatorOnIncrementalView(t *testing.T) {
	const rate = 100.0
	tr := traj.StopAndGo(rate, geom.Vec2{X: 10, Y: 0}, 0, 0.4, 0.5, 1.0, 2)
	env := rf.NewEnvironment(rf.FastConfig(), geom.Vec2{}, geom.Vec2{X: 10, Y: 0}, nil)
	s, err := csi.Collect(env, array.NewLinear3(0.029), tr, csi.RealisticReceiver(17)).Process(true)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := trrs.NewIncremental(s.Rate, s.NumAnts, s.NumTx, 30)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMovementConfig()
	fastCfg := cfg
	fastCfg.SlowLagSeconds = 0
	views := [][]int{nil, {0, 2}, {1, 2}}
	const span, hop = 300, 50
	snap := make([][][]complex128, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
	start, hops := 0, 0
	for next := 0; next < s.NumSlots(); next++ {
		for a := range snap {
			for tx := range snap[a] {
				snap[a][tx] = s.H[a][tx][next]
			}
		}
		if err := inc.Append(snap); err != nil {
			t.Fatal(err)
		}
		if (next+1)%hop != 0 {
			continue
		}
		if n := next + 1 - start; n > span {
			inc.DropFront(n - span)
			start += n - span
		}
		ants := views[hops%len(views)]
		hops++
		view, err := inc.EngineView(ants)
		if err != nil {
			t.Fatal(err)
		}
		if ants == nil {
			ants = []int{0, 1, 2}
		}
		batch := windowEngine(s, start, next+1, ants)
		ind, fast := MovementIndicators(view, cfg)
		requireSameBits(t, "view MovementIndicators", ind, MovementIndicator(batch, cfg))
		requireSameBits(t, "view fast indicator", fast, MovementIndicator(batch, fastCfg))
		requireSameBits(t, "view MovementIndicator", MovementIndicator(view, cfg), ind)
	}
	if hops < 6 {
		t.Fatalf("only %d hops: the schedule never slid the window", hops)
	}
}

// TestMovementIndicatorsUnsharedLags covers the configs whose fast and
// combined lag lists share no prefix (a negative LagSeconds gives the
// fast config a second lag) or coincide: MovementIndicators still equals
// the two separate calls.
func TestMovementIndicatorsUnsharedLags(t *testing.T) {
	tr := traj.StopAndGo(100, geom.Vec2{X: 10, Y: 0}, 0, 0.4, 0.5, 1.0, 1)
	e := buildEngine(t, tr, array.NewLinear3(0.029), csi.RealisticReceiver(3))
	for _, lags := range [][2]float64{{-0.1, 0.2}, {-0.1, -0.5}, {0.05, 0.05}, {0.25, 0.05}} {
		cfg := DefaultMovementConfig()
		cfg.LagSeconds, cfg.SlowLagSeconds = lags[0], lags[1]
		fastCfg := cfg
		fastCfg.SlowLagSeconds = 0
		ind, fast := MovementIndicators(e, cfg)
		requireSameBits(t, "combined", ind, MovementIndicator(e, cfg))
		requireSameBits(t, "fast", fast, MovementIndicator(e, fastCfg))
	}
}

// windowEngine is the batch engine over slots [from, to) of the given
// antennas of s.
func windowEngine(s *csi.Series, from, to int, ants []int) *trrs.Engine {
	sub := &csi.Series{
		Rate: s.Rate, NumAnts: len(ants), NumTx: s.NumTx, NumSub: s.NumSub,
		H: make([][][][]complex128, len(ants)),
	}
	for k, a := range ants {
		sub.H[k] = make([][][]complex128, s.NumTx)
		for tx := range sub.H[k] {
			sub.H[k][tx] = s.H[a][tx][from:to]
		}
	}
	return trrs.NewEngine(sub)
}
