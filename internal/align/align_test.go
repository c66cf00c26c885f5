package align

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/geom"
	"rim/internal/rf"
	"rim/internal/traj"
	"rim/internal/trrs"
)

func buildEngine(t *testing.T, tr *traj.Trajectory, arr *array.Array, rcfg csi.ReceiverConfig) *trrs.Engine {
	t.Helper()
	cfg := rf.FastConfig()
	env := rf.NewEnvironment(cfg, geom.Vec2{}, geom.Vec2{X: 10, Y: 0}, nil)
	s, err := csi.Collect(env, arr, tr, rcfg).Process(true)
	if err != nil {
		t.Fatal(err)
	}
	return trrs.NewEngine(s)
}

func TestMovementDetectionStopAndGo(t *testing.T) {
	rate := 100.0
	arr := array.NewLinear3(0.029)
	tr := traj.StopAndGo(rate, geom.Vec2{X: 10, Y: 0}, 0, 0.4, 0.5, 1.0, 2)
	e := buildEngine(t, tr, arr, csi.RealisticReceiver(17))
	cfg := DefaultMovementConfig()
	moving := ThresholdWithHysteresis(MovementIndicator(e, cfg), cfg)

	check := func(slot int, want bool, what string) {
		t.Helper()
		if moving[slot] != want {
			ind := MovementIndicator(e, cfg)
			t.Errorf("%s: slot %d moving=%v want %v (indicator %.3f)",
				what, slot, moving[slot], want, ind[slot])
		}
	}
	// Trace layout at 100 Hz: pause 0-100, move 100-180, pause 180-280,
	// move 280-360, pause 360-460.
	check(50, false, "first pause")
	check(140, true, "first move")
	check(240, false, "middle pause")
	check(320, true, "second move")
	check(430, false, "final pause")
}

func TestSegments(t *testing.T) {
	f := []bool{false, true, true, true, false, false, true, true, false}
	segs := Segments(f, 2, 0)
	if len(segs) != 2 || segs[0] != [2]int{1, 4} || segs[1] != [2]int{6, 8} {
		t.Errorf("segments = %v", segs)
	}
	// minLen filters the short run.
	segs = Segments(f, 4, 0)
	if len(segs) != 0 {
		t.Errorf("minLen filter failed: %v", segs)
	}
	// maxGap bridges the two runs.
	segs = Segments(f, 2, 2)
	if len(segs) != 1 || segs[0] != [2]int{1, 8} {
		t.Errorf("gap bridge = %v", segs)
	}
	if Segments(nil, 1, 0) != nil {
		t.Error("empty input must yield nil")
	}
	// All true.
	segs = Segments([]bool{true, true}, 1, 0)
	if len(segs) != 1 || segs[0] != [2]int{0, 2} {
		t.Errorf("all-true = %v", segs)
	}
}

// syntheticMatrix builds a matrix with a clean peak ridge at the given lag
// path, plus uniform noise floor.
func syntheticMatrix(w int, lagPath []int, peak, floor float64) *trrs.Matrix {
	m := &trrs.Matrix{W: w, Rate: 100}
	for _, lag := range lagPath {
		row := make([]float64, 2*w+1)
		for c := range row {
			row[c] = floor
		}
		if lag >= -w && lag <= w {
			row[lag+w] = peak
			// Soft shoulders.
			if lag+w-1 >= 0 {
				row[lag+w-1] = (peak + floor) / 2
			}
			if lag+w+1 < len(row) {
				row[lag+w+1] = (peak + floor) / 2
			}
		}
		m.Vals = append(m.Vals, row)
	}
	return m
}

func TestTrackPeaksFollowsRidge(t *testing.T) {
	w := 20
	path := make([]int, 60)
	for i := range path {
		path[i] = 5 + i/12 // slow drift from 5 to 9
	}
	m := syntheticMatrix(w, path, 0.9, 0.2)
	tr := TrackPeaks(m, 0, m.NumSlots(), DefaultTrackConfig())
	for i, lag := range tr.Lags {
		if d := math.Abs(float64(lag - path[i])); d > 1 {
			t.Fatalf("slot %d: tracked %d, truth %d", i, lag, path[i])
		}
	}
	if tr.MeanVal() < 0.8 {
		t.Errorf("path TRRS %v too low", tr.MeanVal())
	}
}

func TestTrackPeaksRejectsOutlierColumns(t *testing.T) {
	// A few columns have a spurious larger peak far away; the DP's jump
	// cost plus median smoothing must keep the path on the ridge, where
	// naive argmax jumps.
	w := 20
	path := make([]int, 50)
	for i := range path {
		path[i] = -6
	}
	m := syntheticMatrix(w, path, 0.8, 0.2)
	for _, bad := range []int{10, 25, 40} {
		m.Vals[bad][m.Col(15)] = 0.95 // outlier peak
	}
	tr := TrackPeaks(m, 0, m.NumSlots(), DefaultTrackConfig())
	for i, lag := range tr.Lags {
		if lag != -6 {
			t.Fatalf("slot %d: tracked %d, want -6", i, lag)
		}
	}
	// The naive column max does jump (sanity check of the ablation).
	lags, _ := m.ColumnMax()
	jumped := false
	for _, l := range lags {
		if l == 15 {
			jumped = true
		}
	}
	if !jumped {
		t.Error("outliers did not affect naive argmax; test is vacuous")
	}
}

func TestTrackPeaksSegmentBounds(t *testing.T) {
	w := 5
	path := make([]int, 30)
	for i := range path {
		path[i] = 2
	}
	m := syntheticMatrix(w, path, 0.9, 0.1)
	tr := TrackPeaks(m, 10, 20, TrackConfig{JumpCost: 0.067})
	if tr.Start != 10 || tr.End != 20 || len(tr.Lags) != 10 {
		t.Fatalf("segment track = %+v", tr)
	}
	// Degenerate segment.
	empty := TrackPeaks(m, 20, 20, DefaultTrackConfig())
	if len(empty.Lags) != 0 {
		t.Error("empty segment must produce empty track")
	}
	// Clamping.
	tr2 := TrackPeaks(m, -5, 999, DefaultTrackConfig())
	if tr2.Start != 0 || tr2.End != 30 {
		t.Errorf("clamping failed: %d..%d", tr2.Start, tr2.End)
	}
}

func TestTrackOnRealAlignment(t *testing.T) {
	// End-to-end: linear array moving along its axis; the DP track on pair
	// (0,2) must hover at lag = separation/speed.
	rate, speed := 100.0, 0.4
	arr := array.NewLinear3(0.029)
	tr := traj.Line(rate, geom.Vec2{X: 10, Y: 0}, 0, 0, 0.8, speed)
	e := buildEngine(t, tr, arr, csi.RealisticReceiver(5))
	m := e.PairMatrix(0, 2, 30, 20)
	wantLag := 0.058 / speed * rate // 14.5 slots
	track := TrackPeaks(m, 20, m.NumSlots()-5, DefaultTrackConfig())
	if d := math.Abs(track.MedianLag() - wantLag); d > 2 {
		t.Errorf("median tracked lag %v, want %v", track.MedianLag(), wantLag)
	}
	if conf := PostCheck(track, DefaultPostCheckConfig()); conf <= 0 {
		t.Error("aligned pair rejected by post-check")
	}
}

func TestPreDetectSeparatesAlignedFromOrthogonal(t *testing.T) {
	// Hexagonal array moving along body +X: the diameter pair (3,0) points
	// along the motion and is aligned; the chord pair (1,5) points along
	// −90° (perpendicular to the motion) and never aligns.
	rate, speed := 100.0, 0.4
	arr := array.NewHexagonal(0.029)
	tr := traj.Line(rate, geom.Vec2{X: 10, Y: 0}, 0, 0, 0.6, speed)
	e := buildEngine(t, tr, arr, csi.RealisticReceiver(29))
	w := 30
	aligned := e.PairMatrix(3, 0, w, 20)
	ortho := e.PairMatrix(1, 5, w, 20)
	cfg := DefaultPreDetectConfig()
	start, end := 20, e.NumSlots()-5
	fa, okA := PreDetect(aligned, start, end, cfg)
	fo, _ := PreDetect(ortho, start, end, cfg)
	if !okA {
		t.Errorf("aligned pair failed pre-detection (frac %.2f)", fa)
	}
	// Pre-detection is a permissive screen (borderline pairs are settled
	// by the post-check and cross-window consistency); the aligned pair
	// must still dominate the orthogonal one by a wide margin.
	if fo > fa/2 {
		t.Errorf("orthogonal frac %.2f not well below aligned %.2f", fo, fa)
	}
}

func TestPreDetectDegenerate(t *testing.T) {
	m := syntheticMatrix(5, []int{1, 1, 1}, 0.9, 0.1)
	if _, ok := PreDetect(m, 2, 2, DefaultPreDetectConfig()); ok {
		t.Error("empty range must fail")
	}
	if frac, ok := PreDetect(m, -10, 99, DefaultPreDetectConfig()); !ok || frac < 0.9 {
		t.Errorf("clamped range: frac=%v ok=%v", frac, ok)
	}
}

func TestPostCheckRejections(t *testing.T) {
	cfg := DefaultPostCheckConfig()
	mk := func(lags []int, vals []float64) *Track {
		return &Track{Lags: lags, Vals: vals}
	}
	// Too weak.
	weak := mk([]int{5, 5, 5}, []float64{0.1, 0.1, 0.1})
	if PostCheck(weak, cfg) != 0 {
		t.Error("weak path accepted")
	}
	// Too jumpy.
	jumpy := mk([]int{-10, 10, -10, 10}, []float64{0.9, 0.9, 0.9, 0.9})
	if PostCheck(jumpy, cfg) != 0 {
		t.Error("jumpy path accepted")
	}
	// Hugging zero lag.
	zero := mk([]int{0, 0, 0}, []float64{0.9, 0.9, 0.9})
	if PostCheck(zero, cfg) != 0 {
		t.Error("zero-lag path accepted")
	}
	// Good path.
	good := mk([]int{6, 6, 7, 7}, []float64{0.8, 0.8, 0.8, 0.8})
	if c := PostCheck(good, cfg); c <= 0 || c > 1 {
		t.Errorf("good path confidence = %v", c)
	}
	// Empty.
	if PostCheck(&Track{}, cfg) != 0 {
		t.Error("empty track accepted")
	}
}

func TestTrackHelpers(t *testing.T) {
	tr := &Track{Lags: []int{2, 4, 6}, Vals: []float64{0.5, 0.7, 0.9}}
	if math.Abs(tr.MeanVal()-0.7) > 1e-12 {
		t.Errorf("MeanVal = %v", tr.MeanVal())
	}
	if tr.Smoothness() != 2 {
		t.Errorf("Smoothness = %v", tr.Smoothness())
	}
	if tr.MedianLag() != 4 {
		t.Errorf("MedianLag = %v", tr.MedianLag())
	}
	single := &Track{Lags: []int{3}}
	if single.Smoothness() != 0 {
		t.Error("single-point smoothness != 0")
	}
}

// TestTrackScratchReuseMatchesFresh tracks random matrices of several
// widths and segment lengths through one reused scratch, dirtied by every
// earlier call, and wants each track identical to a fresh TrackPeaks.
func TestTrackScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s TrackScratch
	for trial := 0; trial < 60; trial++ {
		w := []int{0, 1, 7, 30}[trial%4]
		slots := 1 + rng.Intn(90)
		m := &trrs.Matrix{W: w, Rate: 100, Vals: make([][]float64, slots)}
		for ti := range m.Vals {
			m.Vals[ti] = make([]float64, 2*w+1)
			for c := range m.Vals[ti] {
				m.Vals[ti][c] = rng.Float64()
			}
		}
		start := rng.Intn(slots)
		end := start + rng.Intn(slots-start+1)
		got := s.TrackPeaks(m, start, end, DefaultTrackConfig())
		want := TrackPeaks(m, start, end, DefaultTrackConfig())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (W=%d, [%d, %d)): reused scratch tracked %+v, fresh %+v", trial, w, start, end, got, want)
		}
	}
	// A warmed scratch saves the DP's two allocations of every call (the
	// back-pointer table and the score rows).
	m := syntheticMatrix(30, make([]int, 150), 1, 0.1)
	s.TrackPeaks(m, 0, 150, DefaultTrackConfig())
	fresh := testing.AllocsPerRun(10, func() { TrackPeaks(m, 0, 150, DefaultTrackConfig()) })
	reused := testing.AllocsPerRun(10, func() { s.TrackPeaks(m, 0, 150, DefaultTrackConfig()) })
	if fresh-reused != 2 {
		t.Fatalf("a reused scratch allocates %.0f times per track, a fresh call %.0f: want the 2 DP buffers fewer", reused, fresh)
	}
}
