package traj

import (
	"math"
	"testing"

	"rim/internal/geom"
)

func TestGestureReturnsToCenter(t *testing.T) {
	center := geom.Vec2{X: 1, Y: 1}
	for _, g := range AllGestures() {
		tr, _ := GestureSession(200, []GestureKind{g}, center, 0.25, 0.4)
		last := tr.Samples[len(tr.Samples)-1].Pose.Pos
		if last.Dist(center) > 0.02 {
			t.Errorf("%v did not return: %v", g, last)
		}
		if !almost(tr.TotalDistance(), 0.5, 0.02) {
			t.Errorf("%v distance = %v", g, tr.TotalDistance())
		}
	}
}

func TestGestureAngles(t *testing.T) {
	if GestureRight.Angle() != 0 || GestureLeft.Angle() != math.Pi {
		t.Error("horizontal gesture angles wrong")
	}
	if GestureUp.Angle() != math.Pi/2 || GestureDown.Angle() != -math.Pi/2 {
		t.Error("vertical gesture angles wrong")
	}
}

func TestGestureString(t *testing.T) {
	names := map[GestureKind]string{
		GestureLeft: "left", GestureRight: "right",
		GestureUp: "up", GestureDown: "down",
	}
	for g, want := range names {
		if g.String() != want {
			t.Errorf("%d.String() = %q", g, g.String())
		}
	}
	if GestureKind(99).String() != "unknown" {
		t.Error("unknown kind string")
	}
}

func TestGestureSessionSpans(t *testing.T) {
	kinds := []GestureKind{GestureLeft, GestureUp, GestureRight}
	tr, spans := GestureSession(100, kinds, geom.Vec2{}, 0.25, 0.4)
	if len(spans) != len(kinds) {
		t.Fatalf("spans = %d", len(spans))
	}
	for i, sp := range spans {
		if sp[0] >= sp[1] || sp[1] > len(tr.Samples) {
			t.Fatalf("span %d invalid: %v", i, sp)
		}
		// Every span must contain motion.
		moved := false
		for k := sp[0]; k < sp[1]; k++ {
			if tr.Samples[k].Vel.Norm() > 0 {
				moved = true
				break
			}
		}
		if !moved {
			t.Errorf("span %d has no motion", i)
		}
		if i > 0 && spans[i-1][1] > sp[0] {
			t.Error("spans overlap")
		}
	}
}
