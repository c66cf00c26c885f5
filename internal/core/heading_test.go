package core

import (
	"math"
	"testing"

	"rim/internal/array"
	"rim/internal/geom"
	"rim/internal/traj"
)

// TestContinuousHeadingRefinesOffGridDirections drives the §7 extension:
// for motions between the hexagon's 30°-spaced directions, the refined
// heading must on average beat the quantized one.
func TestContinuousHeadingRefinesOffGridDirections(t *testing.T) {
	rate := 100.0
	arr := array.NewHexagonal(spacing)
	dirs := []float64{10, 40, 75, 130}
	run := func(continuous bool) float64 {
		var sum float64
		for i, d := range dirs {
			b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
			b.Pause(0.4)
			b.MoveDir(geom.Rad(d), 0.8, 0.4)
			b.Pause(0.4)
			s := buildSeries(t, b.Build(), arr, 77+int64(i))
			cfg := testConfigV20(arr)
			cfg.ContinuousHeading = continuous
			res, err := ProcessSeries(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			errDeg := 180.0
			for _, seg := range res.SegmentsOfKind(MotionTranslate) {
				errDeg = math.Abs(geom.Deg(geom.AngleDiff(seg.HeadingBody, geom.Rad(d))))
				break
			}
			sum += errDeg
		}
		return sum / float64(len(dirs))
	}
	discrete := run(false)
	continuous := run(true)
	t.Logf("mean heading error: discrete %.1f°, continuous %.1f°", discrete, continuous)
	if continuous > discrete+1 {
		t.Errorf("continuous heading (%.1f°) worse than discrete (%.1f°)", continuous, discrete)
	}
}

func TestContinuousHeadingNoopOnGrid(t *testing.T) {
	// On-grid motion must stay exact with the refinement enabled.
	rate := 100.0
	arr := array.NewHexagonal(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.4)
	b.MoveDir(geom.Rad(60), 0.7, 0.4)
	b.Pause(0.4)
	s := buildSeries(t, b.Build(), arr, 3)
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
	if got := math.Abs(geom.Deg(geom.AngleDiff(segs[0].HeadingBody, geom.Rad(60)))); got > 12 {
		t.Errorf("on-grid heading error %.1f° with refinement", got)
	}
}
