package core

import (
	"math"
	"testing"

	"rim/internal/array"
	"rim/internal/geom"
	"rim/internal/traj"
)

func TestBackAndForthDistance(t *testing.T) {
	// Forward-then-backward within one trace: total distance is the sum
	// of both phases and the per-slot headings flip (Fig. 8's workload at
	// pipeline level).
	rate := 100.0
	arr := array.NewLinear3(spacing)
	tr := traj.BackAndForth(rate, geom.Vec2{X: 10, Y: 0}, 0, 0.8, 0.4)
	s := buildSeries(t, tr, arr, 19)
	res, err := ProcessSeries(s, testConfigV20(arr))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Distance-1.6) > 0.25 {
		t.Errorf("round-trip distance = %v, want 1.6 ± 0.25", res.Distance)
	}
	// Both headings must appear in the per-slot estimates.
	sawFwd, sawBack := false, false
	for _, e := range res.Estimates {
		if e.Kind != MotionTranslate || math.IsNaN(e.HeadingBody) {
			continue
		}
		if geom.AbsAngleDiff(e.HeadingBody, 0) < geom.Rad(5) {
			sawFwd = true
		}
		if geom.AbsAngleDiff(e.HeadingBody, math.Pi) < geom.Rad(5) {
			sawBack = true
		}
	}
	if !sawFwd || !sawBack {
		t.Errorf("headings not both observed: fwd=%v back=%v", sawFwd, sawBack)
	}
}

func TestDownsampledSeriesProcessing(t *testing.T) {
	// The pipeline must run on a downsampled series with the lag window
	// re-derived from the new rate (Fig. 16's mechanism at unit level).
	rate := 200.0
	arr := array.NewLinear3(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.5)
	b.MoveDir(0, 1.0, 0.4)
	b.Pause(0.5)
	s := buildSeries(t, b.Build(), arr, 21)
	ds := s.Downsample(2) // 100 Hz
	res, err := ProcessSeries(ds, testConfigV20(arr))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Distance-1.0) > 0.2 {
		t.Errorf("downsampled distance = %v, want 1.0 ± 0.2", res.Distance)
	}
}

func TestStaticTraceNoSegments(t *testing.T) {
	arr := array.NewLinear3(spacing)
	b := traj.NewBuilder(100, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(2.0)
	s := buildSeries(t, b.Build(), arr, 25)
	res, err := ProcessSeries(s, testConfigV20(arr))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 0 || res.Distance != 0 || res.RotationAngle != 0 {
		t.Errorf("static trace produced motion: %+v", res.Segments)
	}
	for _, e := range res.Estimates {
		if e.Moving || e.Speed != 0 {
			t.Fatal("static slot marked moving")
		}
	}
}

func TestSplitAtInteriorIdles(t *testing.T) {
	ind := make([]float64, 100)
	for i := range ind {
		ind[i] = 0.4 // moving
	}
	// A 50-slot idle (≥ threshold) in the middle.
	for i := 40; i < 90; i++ {
		ind[i] = 0.95
	}
	segs := splitAtInteriorIdles([][2]int{{0, 100}}, ind, 0.8, 20, 5)
	if len(segs) != 2 || segs[0] != [2]int{0, 40} || segs[1] != [2]int{90, 100} {
		t.Errorf("split = %v", segs)
	}
	// A short idle (below idleLen) must NOT split.
	for i := range ind {
		ind[i] = 0.4
	}
	for i := 40; i < 50; i++ {
		ind[i] = 0.95
	}
	segs = splitAtInteriorIdles([][2]int{{0, 100}}, ind, 0.8, 20, 5)
	if len(segs) != 1 || segs[0] != [2]int{0, 100} {
		t.Errorf("short idle split: %v", segs)
	}
	// Sub-minimum fragments are dropped.
	for i := range ind {
		ind[i] = 0.95
	}
	for i := 0; i < 3; i++ {
		ind[i] = 0.4
	}
	for i := 60; i < 100; i++ {
		ind[i] = 0.4
	}
	segs = splitAtInteriorIdles([][2]int{{0, 100}}, ind, 0.8, 20, 5)
	if len(segs) != 1 || segs[0] != [2]int{60, 100} {
		t.Errorf("fragment filter: %v", segs)
	}
	// idleLen < 1 is a no-op.
	segs = splitAtInteriorIdles([][2]int{{0, 10}}, ind, 0.8, 0, 5)
	if len(segs) != 1 || segs[0] != [2]int{0, 10} {
		t.Errorf("no-op: %v", segs)
	}
}

func TestRefineHeadingDegenerate(t *testing.T) {
	// A linear array has no symmetric angular neighbors: the refinement
	// must be a no-op rather than an error.
	rate := 100.0
	arr := array.NewLinear3(spacing)
	tr := traj.Line(rate, geom.Vec2{X: 10, Y: 0}, 0, 0, 0.8, 0.4)
	s := buildSeries(t, tr, arr, 27)
	cfg := testConfigV20(arr)
	cfg.ContinuousHeading = true
	res, err := ProcessSeries(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	segs := res.SegmentsOfKind(MotionTranslate)
	if len(segs) != 1 {
		t.Fatalf("segments = %+v", segs)
	}
	if math.Abs(geom.Deg(segs[0].HeadingBody)) > 5 {
		t.Errorf("linear-array refined heading = %v°", geom.Deg(segs[0].HeadingBody))
	}
}
