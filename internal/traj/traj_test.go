package traj

import (
	"math"
	"testing"

	"rim/internal/geom"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLineDistanceAndHeading(t *testing.T) {
	tr := Line(100, geom.Vec2{}, 0, geom.Rad(30), 2.0, 0.5)
	if !almost(tr.TotalDistance(), 2.0, 0.02) {
		t.Errorf("distance = %v", tr.TotalDistance())
	}
	if !almost(tr.Duration(), 4.0, 0.05) {
		t.Errorf("duration = %v", tr.Duration())
	}
	if v := tr.Samples[len(tr.Samples)/2].Vel; v.Norm() < 1e-6 || !almost(v.Angle(), geom.Rad(30), 1e-9) {
		t.Errorf("mid-line velocity = %v, want heading 30 deg", v)
	}
	// Orientation never changes on a sideway-capable move.
	for _, s := range tr.Samples {
		if s.Pose.Theta != 0 {
			t.Fatal("MoveDir must not rotate the body")
		}
	}
}

func TestBuilderPause(t *testing.T) {
	b := NewBuilder(50, geom.Pose{})
	b.Pause(0.5)
	tr := b.Build()
	if len(tr.Samples) != 1+25 {
		t.Errorf("samples = %d", len(tr.Samples))
	}
	for _, s := range tr.Samples {
		if s.Vel.Norm() != 0 || s.Pose.Pos != (geom.Vec2{}) {
			t.Fatal("pause must not move")
		}
	}
}

func TestRotateInPlace(t *testing.T) {
	b := NewBuilder(100, geom.Pose{})
	b.RotateInPlace(geom.Rad(90), geom.Rad(60))
	tr := b.Build()
	last := tr.Samples[len(tr.Samples)-1]
	if !almost(last.Pose.Theta, geom.Rad(90), geom.Rad(2)) {
		t.Errorf("final theta = %v deg", geom.Deg(last.Pose.Theta))
	}
	if last.Pose.Pos != (geom.Vec2{}) {
		t.Error("in-place rotation translated the body")
	}
	if !almost(tr.Duration(), 1.5, 0.05) {
		t.Errorf("duration = %v", tr.Duration())
	}
	// Negative rotation.
	b2 := NewBuilder(100, geom.Pose{})
	b2.RotateInPlace(geom.Rad(-90), geom.Rad(60))
	if got := b2.Pose().Theta; !almost(got, geom.Rad(-90), geom.Rad(2)) {
		t.Errorf("negative rotation theta = %v deg", geom.Deg(got))
	}
}

func TestSquareClosesLoop(t *testing.T) {
	tr := Square(100, geom.Vec2{X: 1, Y: 1}, 1.0, 0.5)
	last := tr.Samples[len(tr.Samples)-1].Pose.Pos
	if last.Dist(geom.Vec2{X: 1, Y: 1}) > 0.05 {
		t.Errorf("square did not close: final %v", last)
	}
	if !almost(tr.TotalDistance(), 4.0, 0.05) {
		t.Errorf("perimeter = %v", tr.TotalDistance())
	}
}

func TestBackAndForthReturns(t *testing.T) {
	tr := BackAndForth(100, geom.Vec2{}, 0, 0.8, 0.4)
	last := tr.Samples[len(tr.Samples)-1].Pose.Pos
	if last.Norm() > 0.03 {
		t.Errorf("did not return to origin: %v", last)
	}
	if !almost(tr.TotalDistance(), 1.6, 0.03) {
		t.Errorf("distance = %v", tr.TotalDistance())
	}
}

func TestStopAndGoStructure(t *testing.T) {
	tr := StopAndGo(100, geom.Vec2{}, 0, 0.5, 0.5, 0.4, 3)
	if !almost(tr.TotalDistance(), 1.5, 0.03) {
		t.Errorf("distance = %v", tr.TotalDistance())
	}
	// Count moving/paused transitions: 3 moves → 6 transitions.
	trans := 0
	prevMoving := false
	for _, s := range tr.Samples {
		m := s.Vel.Norm() > 0
		if m != prevMoving {
			trans++
			prevMoving = m
		}
	}
	if trans != 6 {
		t.Errorf("transitions = %d, want 6", trans)
	}
}

func TestDistanceUpTo(t *testing.T) {
	tr := Line(100, geom.Vec2{}, 0, 0, 1.0, 0.5)
	full := tr.TotalDistance()
	if got := tr.DistanceUpTo(len(tr.Samples) - 1); !almost(got, full, 1e-9) {
		t.Errorf("DistanceUpTo(last) = %v, want %v", got, full)
	}
	if got := tr.DistanceUpTo(10 * len(tr.Samples)); !almost(got, full, 1e-9) {
		t.Error("DistanceUpTo must clamp")
	}
	if tr.DistanceUpTo(0) != 0 {
		t.Error("DistanceUpTo(0) != 0")
	}
}

func TestMoveBodyUsesOrientation(t *testing.T) {
	b := NewBuilder(100, geom.Pose{Theta: math.Pi / 2})
	b.MoveBody(0, 1.0, 0.5) // body +X is world +Y
	tr := b.Build()
	last := tr.Samples[len(tr.Samples)-1].Pose.Pos
	if !almost(last.Y, 1.0, 0.02) || math.Abs(last.X) > 1e-9 {
		t.Errorf("MoveBody final = %v", last)
	}
}

func TestAddLateralSway(t *testing.T) {
	tr := Line(200, geom.Vec2{}, 0, 0, 1.0, 0.5)
	tr.AddLateralSway(0.005, 1.0)
	maxOff := 0.0
	for _, s := range tr.Samples {
		if off := math.Abs(s.Pose.Pos.Y); off > maxOff {
			maxOff = off
		}
	}
	if maxOff < 0.004 || maxOff > 0.006 {
		t.Errorf("sway amplitude = %v", maxOff)
	}
}

func TestMoveDirDegenerate(t *testing.T) {
	b := NewBuilder(100, geom.Pose{})
	b.MoveDir(0, 0, 1)
	b.MoveDir(0, 1, 0)
	if len(b.Build().Samples) != 1 {
		t.Error("degenerate moves must be no-ops")
	}
}

func TestPositions(t *testing.T) {
	tr := Line(100, geom.Vec2{X: 2}, 0, 0, 0.5, 0.5)
	pos := tr.Positions()
	if len(pos) != len(tr.Samples) {
		t.Fatal("length mismatch")
	}
	if pos[0] != (geom.Vec2{X: 2}) {
		t.Errorf("first position = %v", pos[0])
	}
}
