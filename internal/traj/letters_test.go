package traj

import (
	"math"
	"testing"

	"rim/internal/geom"
)

func TestLetterPolylineScaling(t *testing.T) {
	pts, err := LetterPolyline('I', geom.Vec2{X: 1, Y: 2}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// 'I' is a vertical bar from (0.5, 0) to (0.5, 1) in the unit box.
	if !almost(pts[0].X, 1.1, 1e-9) || !almost(pts[0].Y, 2.0, 1e-9) {
		t.Errorf("pts[0] = %v", pts[0])
	}
	if !almost(pts[1].Y, 2.2, 1e-9) {
		t.Errorf("pts[1] = %v", pts[1])
	}
	if _, err := LetterPolyline('@', geom.Vec2{}, 1); err == nil {
		t.Error("unknown letter should error")
	}
}

func TestLetterTrajectory(t *testing.T) {
	tr, err := Letter(100, 'M', geom.Vec2{}, 0.2, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalDistance() < 0.2*3 {
		t.Errorf("letter M path too short: %v", tr.TotalDistance())
	}
	// The trajectory must stay inside a generous glyph bounding box.
	for _, s := range tr.Samples {
		if s.Pose.Pos.X < -0.1 || s.Pose.Pos.X > 0.3 ||
			s.Pose.Pos.Y < -0.1 || s.Pose.Pos.Y > 0.3 {
			t.Fatalf("stroke escaped glyph box: %v", s.Pose.Pos)
		}
	}
}

func TestPolylineError(t *testing.T) {
	truth := []geom.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}}
	est := []geom.Vec2{{X: 0.5, Y: 0.1}, {X: 0.2, Y: -0.1}}
	if got := PolylineError(est, truth); !almost(got, 0.1, 1e-9) {
		t.Errorf("error = %v", got)
	}
	// Perfect estimate → zero error.
	if got := PolylineError(truth, truth); got != 0 {
		t.Errorf("perfect error = %v", got)
	}
	if !math.IsNaN(PolylineError(nil, truth)) {
		t.Error("empty estimate must be NaN")
	}
	// Single-point truth degenerates to point distance.
	if got := PolylineError([]geom.Vec2{{X: 3, Y: 4}}, []geom.Vec2{{X: 0, Y: 0}}); !almost(got, 5, 1e-9) {
		t.Errorf("point error = %v", got)
	}
}
