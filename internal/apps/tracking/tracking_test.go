package tracking

import (
	"math"
	"testing"

	"rim/internal/array"
	"rim/internal/camera"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/faults"
	"rim/internal/floorplan"
	"rim/internal/fusion"
	"rim/internal/geom"
	"rim/internal/imu"
	"rim/internal/rf"
	"rim/internal/traj"
)

func collectSeries(t *testing.T, tr *traj.Trajectory, arr *array.Array, seed int64) *csi.Series {
	t.Helper()
	env := rf.NewEnvironment(rf.FastConfig(), geom.Vec2{}, geom.Vec2{X: 10, Y: 0}, nil)
	s, err := csi.Collect(env, arr, tr, csi.RealisticReceiver(seed)).Process(true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPureRIMSidewayPath(t *testing.T) {
	// An L-path with a sideway move (no turning): +X then +Y with fixed
	// body orientation — the Fig. 20 scenario in miniature.
	rate := 100.0
	start := geom.Vec2{X: 10, Y: 0}
	arr := array.NewHexagonal(0.029)
	b := traj.NewBuilder(rate, geom.Pose{Pos: start})
	b.Pause(0.5)
	b.MoveDir(0, 1.0, 0.4)
	b.Pause(0.6)
	b.MoveDir(geom.Rad(90), 1.0, 0.4) // sideway: heading changes, body does not
	b.Pause(0.5)
	tr := b.Build()
	s := collectSeries(t, tr, arr, 61)
	camCfg := camera.DefaultConfig(1)
	res, err := PureRIM(s, core.FastConfig(arr), geom.Pose{Pos: start}, tr, camCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MedianError > 0.25 {
		t.Errorf("median tracking error = %.3f m, want < 0.25", res.MedianError)
	}
	final := res.Estimated[len(res.Estimated)-1]
	truth := geom.Vec2{X: 11, Y: 1}
	if final.Dist(truth) > 0.35 {
		t.Errorf("endpoint = %v, want near %v", final, truth)
	}
	// Both legs must be recognized as translations with distinct headings.
	segs := res.Core.SegmentsOfKind(core.MotionTranslate)
	if len(segs) != 2 {
		t.Fatalf("translate segments = %d, want 2", len(segs))
	}
	if geom.AbsAngleDiff(segs[0].HeadingBody, 0) > geom.Rad(10) ||
		geom.AbsAngleDiff(segs[1].HeadingBody, geom.Rad(90)) > geom.Rad(10) {
		t.Errorf("headings = %v, %v deg",
			geom.Deg(segs[0].HeadingBody), geom.Deg(segs[1].HeadingBody))
	}
}

func TestFusedDeadReckoning(t *testing.T) {
	rate := 100.0
	start := geom.Vec2{X: 10, Y: 0}
	arr := array.NewLinear3(0.029)
	b := traj.NewBuilder(rate, geom.Pose{Pos: start})
	b.Pause(0.5)
	b.MoveDir(0, 1.2, 0.4)
	b.Pause(0.5)
	tr := b.Build()
	s := collectSeries(t, tr, arr, 67)
	readings := imu.Simulate(tr, imu.DefaultConfig(3))
	camCfg := camera.DefaultConfig(2)
	res, err := Fused(s, core.FastConfig(arr), readings, FusedConfig{}, geom.Pose{Pos: start}, tr, camCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MedianError > 0.25 {
		t.Errorf("fused median error = %.3f m", res.MedianError)
	}
	if res.Core == nil {
		t.Error("core result not attached")
	}
}

func TestFusedWithParticleFilterStaysInCorridor(t *testing.T) {
	rate := 100.0
	// Corridor along X at y in [9.25, 10.75] (the cart moves at y=10).
	var plan floorplan.Plan
	plan.Bounds = geom.Rect{Min: geom.Vec2{X: 0, Y: 0}, Max: geom.Vec2{X: 30, Y: 20}}
	plan.AddWall(geom.Vec2{X: 5, Y: 9.25}, geom.Vec2{X: 25, Y: 9.25}, 8)
	plan.AddWall(geom.Vec2{X: 5, Y: 10.75}, geom.Vec2{X: 25, Y: 10.75}, 8)

	start := geom.Vec2{X: 10, Y: 10}
	arr := array.NewLinear3(0.029)
	env := rf.NewEnvironment(rf.FastConfig(), geom.Vec2{X: 1, Y: 1}, start, nil)
	b := traj.NewBuilder(rate, geom.Pose{Pos: start})
	b.Pause(0.5)
	b.MoveDir(0, 2.0, 0.5)
	b.Pause(0.5)
	tr := b.Build()
	s, err := csi.Collect(env, arr, tr, csi.RealisticReceiver(71)).Process(true)
	if err != nil {
		t.Fatal(err)
	}
	// A gyro with aggressive drift: raw dead reckoning bends the path.
	icfg := imu.DefaultConfig(5)
	icfg.GyroBiasWalk = 3e-3
	readings := imu.Simulate(tr, icfg)
	camCfg := camera.DefaultConfig(3)

	raw, err := Fused(s, core.FastConfig(arr), readings, FusedConfig{}, geom.Pose{Pos: start}, tr, camCfg)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Fused(s, core.FastConfig(arr), readings, FusedConfig{
		UsePF: true,
		PF:    fusion.DefaultConfig(9),
		Plan:  &plan,
	}, geom.Pose{Pos: start}, tr, camCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The PF estimate must stay inside the corridor.
	for _, p := range pf.Estimated {
		if p.X > 5 && p.X < 25 && (p.Y < 9.2 || p.Y > 10.8) {
			t.Fatalf("PF estimate left the corridor: %v", p)
		}
	}
	if pf.MedianError > raw.MedianError+0.05 {
		t.Errorf("PF (%.3f m) should not be clearly worse than raw (%.3f m)",
			pf.MedianError, raw.MedianError)
	}
}

func TestEvaluateDistances(t *testing.T) {
	fixes := []camera.Fix{
		{T: 0, Pos: geom.Vec2{X: 0}},
		{T: 1, Pos: geom.Vec2{X: 1}},
	}
	est := []geom.Vec2{{X: 0}, {X: 0.5}, {X: 1}}
	r := evaluate(est, fixes, 2) // slots at t=0, 0.5, 1
	if r.MedianError > 1e-9 {
		t.Errorf("median error = %v, want 0", r.MedianError)
	}
	if r.EstimatedDistance != 1 || r.TruthDistance != 1 {
		t.Errorf("distances = %v / %v", r.EstimatedDistance, r.TruthDistance)
	}
}

// TestFusedBackendsDegradeGracefullyOnFaultyWalk drives the same
// fault-injected walk (bursty loss + a dead chain mid-walk) through both
// fusion backends: estimates must stay finite and the error bounded — a
// degraded walk may cost accuracy, never sanity.
func TestFusedBackendsDegradeGracefullyOnFaultyWalk(t *testing.T) {
	rate := 100.0
	start := geom.Vec2{X: 10, Y: 0}
	arr := array.NewLinear3(0.029)
	env := rf.NewEnvironment(rf.FastConfig(), geom.Vec2{}, start, nil)
	b := traj.NewBuilder(rate, geom.Pose{Pos: start})
	b.Pause(0.6)
	b.MoveDir(0, 1.5, 0.5)
	b.Pause(0.8)
	b.MoveDir(0, 1.0, 0.5)
	b.Pause(0.6)
	tr := b.Build()
	rcv := csi.RealisticReceiver(83)
	rcv.Faults = &faults.Model{
		Seed:     83,
		Loss:     faults.NewGilbertElliott(0.3, 20),
		Dropouts: []faults.Dropout{{Antenna: 2, Start: 2.5}},
	}
	s, err := csi.Collect(env, arr, tr, rcv).Process(true)
	if err != nil {
		t.Fatal(err)
	}
	readings := imu.Simulate(tr, imu.DefaultConfig(7))
	camCfg := camera.DefaultConfig(4)
	for _, backend := range []fusion.BackendKind{fusion.BackendParticle, fusion.BackendESKF} {
		fcfg := fusion.DefaultConfig(11)
		fcfg.Backend = backend
		res, err := Fused(s, core.FastConfig(arr), readings, FusedConfig{
			UsePF: true,
			PF:    fcfg,
		}, geom.Pose{Pos: start}, tr, camCfg)
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		for i, p := range res.Estimated {
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
				t.Fatalf("%v: non-finite estimate at slot %d: %v", backend, i, p)
			}
		}
		if res.MedianError > 1.0 {
			t.Errorf("%v: faulty-walk median error %.3f m, want <= 1.0", backend, res.MedianError)
		}
	}
}
