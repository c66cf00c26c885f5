package core

import (
	"math"
	"testing"

	"rim/internal/align"
	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/geom"
	"rim/internal/rf"
	"rim/internal/traj"
	"rim/internal/trrs"
)

// spacing is λ/2 at 5.18 GHz.
const spacing = 0.029

func buildSeries(t *testing.T, tr *traj.Trajectory, arr *array.Array, seed int64) *csi.Series {
	t.Helper()
	cfg := rf.FastConfig()
	env := rf.NewEnvironment(cfg, geom.Vec2{}, geom.Vec2{X: 10, Y: 0}, nil)
	s, err := csi.Collect(env, arr, tr, csi.RealisticReceiver(seed)).Process(true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testConfigV20 is the unit tests' operating point, W = 0.3 s and V = 20
// (not FastConfig's V = 16): the short lag window keeps them quick, as
// test motions run at ≥0.3 m/s, so lags stay below 0.25 s.
func testConfigV20(arr *array.Array) Config {
	cfg := DefaultConfig(arr)
	cfg.WindowSeconds = 0.3
	cfg.V = 20
	return cfg
}

func TestConfigValidation(t *testing.T) {
	if _, err := ProcessSeries(&csi.Series{}, Config{}); err == nil {
		t.Error("nil array must error")
	}
	arr := array.NewLinear3(spacing)
	tr := traj.Line(100, geom.Vec2{X: 10, Y: 0}, 0, 0, 0.3, 0.4)
	s := buildSeries(t, tr, array.NewHexagonal(spacing), 1)
	if _, err := ProcessSeries(s, Config{Array: arr}); err == nil {
		t.Error("antenna count mismatch must error")
	}
}

// TestDerivedInputsValidatedAtConstruction: the derived matrices are built
// on first need, but a malformed base matrix must still fail pipeline
// construction, for a parallel group (linear array) and for the rotation
// ring (hexagonal array).
func TestDerivedInputsValidatedAtConstruction(t *testing.T) {
	tr := traj.Line(100, geom.Vec2{X: 10, Y: 0}, 0, 0, 0.3, 0.4)
	for _, arr := range []*array.Array{array.NewLinear3(spacing), array.NewHexagonal(spacing)} {
		s := buildSeries(t, tr, arr, 1)
		cfg := testConfigV20(arr)
		cfg.applyDefaults()
		eng := trrs.NewEngine(s)
		w := windowSlots(cfg.WindowSeconds, s.Rate)
		groups, ring := pairGeometry(arr)
		// Break the base matrix of the last pair requested: the ring's
		// last pair on the hexagonal array, a group pair on the linear one.
		last := len(neededPairs(groups, ring, false)) - 1
		broken := func(pairs []trrs.PairSpec) ([]*trrs.Matrix, error) {
			ms := eng.BaseMatrices(pairs, w)
			ms[last].Vals[3] = ms[last].Vals[3][:1]
			return ms, nil
		}
		if _, err := newPipelineFromEngine(eng, broken, nil, cfg); err == nil {
			t.Errorf("%s: malformed base matrix built a pipeline", arr.Name)
		}
		p, err := newPipelineFromEngine(eng, nil, nil, cfg)
		if err != nil {
			t.Fatalf("%s: %v", arr.Name, err)
		}
		if p.derived {
			t.Errorf("%s: derived matrices built at construction", arr.Name)
		}
		p.derive()
		if len(p.groups) != len(groups) || !p.derived {
			t.Errorf("%s: %d groups (derived %v), want %d built", arr.Name, len(p.groups), p.derived, len(groups))
		}
		if p.Window() <= 0 {
			t.Errorf("%s: window not set", arr.Name)
		}
		if p.Engine() != eng {
			t.Errorf("%s: engine not exposed", arr.Name)
		}
	}
}

func TestStraightLineDistance(t *testing.T) {
	rate := 100.0
	arr := array.NewLinear3(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.5)
	b.MoveDir(0, 1.0, 0.4)
	b.Pause(0.5)
	s := buildSeries(t, b.Build(), arr, 42)
	res, err := ProcessSeries(s, testConfigV20(arr))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 {
		t.Fatalf("segments = %d, want 1 (%+v)", len(res.Segments), res.Segments)
	}
	seg := res.Segments[0]
	if seg.Kind != MotionTranslate {
		t.Fatalf("kind = %v", seg.Kind)
	}
	if math.Abs(seg.Distance-1.0) > 0.12 {
		t.Errorf("distance = %v, want 1.0 ± 0.12", seg.Distance)
	}
	// Heading along body +X (lag positive on the canonical +X group).
	if math.Abs(geom.AngleDiff(seg.HeadingBody, 0)) > geom.Rad(5) {
		t.Errorf("heading = %v deg, want 0", geom.Deg(seg.HeadingBody))
	}
	if res.Distance != seg.Distance {
		t.Error("total distance != segment distance")
	}
}

func TestReverseDirectionHeading(t *testing.T) {
	rate := 100.0
	arr := array.NewLinear3(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10.8, Y: 0}})
	b.Pause(0.4)
	b.MoveDir(math.Pi, 0.8, 0.4) // move along body −X
	b.Pause(0.4)
	s := buildSeries(t, b.Build(), arr, 7)
	res, err := ProcessSeries(s, testConfigV20(arr))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 || res.Segments[0].Kind != MotionTranslate {
		t.Fatalf("segments = %+v", res.Segments)
	}
	if got := res.Segments[0].HeadingBody; math.Abs(geom.AngleDiff(got, math.Pi)) > geom.Rad(5) {
		t.Errorf("heading = %v deg, want 180", geom.Deg(got))
	}
}

func TestHexagonalHeadingResolution(t *testing.T) {
	// Move along body 60°: the hexagonal array must resolve exactly that
	// discrete direction.
	rate := 100.0
	arr := array.NewHexagonal(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.4)
	b.MoveDir(geom.Rad(60), 0.7, 0.35)
	b.Pause(0.4)
	s := buildSeries(t, b.Build(), arr, 3)
	res, err := ProcessSeries(s, testConfigV20(arr))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 || res.Segments[0].Kind != MotionTranslate {
		t.Fatalf("segments = %+v", res.Segments)
	}
	if got := res.Segments[0].HeadingBody; math.Abs(geom.AngleDiff(got, geom.Rad(60))) > geom.Rad(6) {
		t.Errorf("heading = %v deg, want 60", geom.Deg(got))
	}
	if math.Abs(res.Segments[0].Distance-0.7) > 0.12 {
		t.Errorf("distance = %v, want 0.7", res.Segments[0].Distance)
	}
}

func TestStopAndGoSegmentation(t *testing.T) {
	rate := 100.0
	arr := array.NewLinear3(spacing)
	tr := traj.StopAndGo(rate, geom.Vec2{X: 10, Y: 0}, 0, 0.5, 0.4, 1.0, 2)
	s := buildSeries(t, tr, arr, 11)
	res, err := ProcessSeries(s, testConfigV20(arr))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(res.Segments))
	}
	for i, seg := range res.Segments {
		if seg.Kind != MotionTranslate {
			t.Errorf("segment %d kind = %v", i, seg.Kind)
		}
		if math.Abs(seg.Distance-0.5) > 0.1 {
			t.Errorf("segment %d distance = %v, want 0.5", i, seg.Distance)
		}
	}
	if math.Abs(res.Distance-1.0) > 0.2 {
		t.Errorf("total distance = %v, want 1.0", res.Distance)
	}
}

func TestInPlaceRotationDetected(t *testing.T) {
	rate := 100.0
	arr := array.NewHexagonal(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.4)
	b.RotateInPlace(geom.Rad(180), geom.Rad(180)) // half turn in 1 s
	b.Pause(0.4)
	s := buildSeries(t, b.Build(), arr, 23)
	// Rotation aligns adjacent antennas after arc/(ω·r) = 1/3 s here, so
	// the lag window must be wider than for brisk translations.
	cfg := testConfigV20(arr)
	cfg.WindowSeconds = 0.6
	res, err := ProcessSeries(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 {
		t.Fatalf("segments = %+v", res.Segments)
	}
	seg := res.Segments[0]
	if seg.Kind != MotionRotate {
		t.Fatalf("kind = %v, want rotate", seg.Kind)
	}
	if seg.Angle <= 0 {
		t.Errorf("CCW rotation angle = %v deg, want positive", geom.Deg(seg.Angle))
	}
	// The paper reports ~30° median error on rotation (17.6% relative);
	// allow a generous band around 180°.
	if math.Abs(geom.Deg(seg.Angle)-180) > 60 {
		t.Errorf("angle = %v deg, want 180 ± 60", geom.Deg(seg.Angle))
	}
	if res.RotationAngle != math.Abs(seg.Angle) {
		t.Error("total rotation angle mismatch")
	}
}

func TestRotationSignCW(t *testing.T) {
	rate := 100.0
	arr := array.NewHexagonal(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.4)
	b.RotateInPlace(geom.Rad(-150), geom.Rad(180))
	b.Pause(0.4)
	s := buildSeries(t, b.Build(), arr, 29)
	cfg := testConfigV20(arr)
	cfg.WindowSeconds = 0.6
	res, err := ProcessSeries(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 || res.Segments[0].Kind != MotionRotate {
		t.Fatalf("segments = %+v", res.Segments)
	}
	if res.Segments[0].Angle >= 0 {
		t.Errorf("CW rotation angle = %v deg, want negative", geom.Deg(res.Segments[0].Angle))
	}
}

func TestTranslationNotMistakenForRotation(t *testing.T) {
	rate := 100.0
	arr := array.NewHexagonal(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.4)
	b.MoveDir(0, 0.6, 0.35)
	b.Pause(0.4)
	s := buildSeries(t, b.Build(), arr, 31)
	res, err := ProcessSeries(s, testConfigV20(arr))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 || res.Segments[0].Kind != MotionTranslate {
		t.Fatalf("translation misclassified: %+v", res.Segments)
	}
}

func TestReckonStraightLine(t *testing.T) {
	rate := 100.0
	arr := array.NewLinear3(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.4)
	b.MoveDir(0, 0.8, 0.4)
	b.Pause(0.4)
	s := buildSeries(t, b.Build(), arr, 13)
	res, err := ProcessSeries(s, testConfigV20(arr))
	if err != nil {
		t.Fatal(err)
	}
	initial := geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}}
	pts := res.ReckonPositions(initial)
	if len(pts) != len(res.Estimates) {
		t.Fatal("reckon length mismatch")
	}
	final := pts[len(pts)-1]
	truth := geom.Vec2{X: 10.8, Y: 0}
	// Reckoning misses the blind-start Δd (compensated only in the
	// segment summary), so allow a slightly wider band.
	if final.Dist(truth) > 0.2 {
		t.Errorf("final reckoned position %v, want %v", final, truth)
	}
}

func TestHelpers(t *testing.T) {
	r := &Result{
		Rate: 100,
		Segments: []SegmentResult{
			{Kind: MotionTranslate}, {Kind: MotionRotate}, {Kind: MotionTranslate},
		},
		Estimates: []Estimate{{Speed: 1}, {Speed: 2}},
	}
	if got := r.SegmentsOfKind(MotionTranslate); len(got) != 2 {
		t.Errorf("translate segments = %d", len(got))
	}
	if got := r.SpeedSeries(); len(got) != 2 || got[1] != 2 {
		t.Errorf("speed series = %v", got)
	}
	if MotionNone.String() != "none" || MotionTranslate.String() != "translate" ||
		MotionRotate.String() != "rotate" || MotionKind(9).String() != "unknown" {
		t.Error("MotionKind strings wrong")
	}
}

// TestApplyDefaultsFillsAlignConfigs pins the defaulting of the align-layer
// movement config: a caller that hand-rolls Config{Array: ...} (as the daemon
// factory does) must still analyze at the paper's operating point. A zero
// MovementConfig in particular has Threshold 0, which makes the movement
// trigger unreachable — every slot reads static and fusion never moves.
func TestApplyDefaultsFillsAlignConfigs(t *testing.T) {
	var cfg Config
	cfg.applyDefaults()
	if cfg.Movement != align.DefaultMovementConfig() {
		t.Errorf("Movement = %+v, want defaults", cfg.Movement)
	}

	// Explicit settings survive: only the fully-zero structs are filled.
	tuned := Config{Movement: align.MovementConfig{Threshold: 0.7, LagSeconds: 0.05}}
	tuned.applyDefaults()
	if tuned.Movement.Threshold != 0.7 {
		t.Errorf("explicit Movement overwritten: %+v", tuned.Movement)
	}
}
