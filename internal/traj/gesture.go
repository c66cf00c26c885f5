package traj

import (
	"math"

	"rim/internal/geom"
)

// GestureKind enumerates the four pointer gestures of §6.3.2: a short move
// in one direction immediately followed by the return move.
type GestureKind int

const (
	GestureLeft GestureKind = iota // move left, then back right
	GestureRight
	GestureUp
	GestureDown
	numGestureKinds
)

// String implements fmt.Stringer.
func (g GestureKind) String() string {
	switch g {
	case GestureLeft:
		return "left"
	case GestureRight:
		return "right"
	case GestureUp:
		return "up"
	case GestureDown:
		return "down"
	default:
		return "unknown"
	}
}

// AllGestures lists the four gesture kinds.
func AllGestures() []GestureKind {
	return []GestureKind{GestureLeft, GestureRight, GestureUp, GestureDown}
}

// Angle returns the world direction of the gesture's outbound stroke.
func (g GestureKind) Angle() float64 {
	switch g {
	case GestureLeft:
		return math.Pi
	case GestureRight:
		return 0
	case GestureUp:
		return math.Pi / 2
	case GestureDown:
		return -math.Pi / 2
	default:
		return 0
	}
}

// GestureSession concatenates a sequence of gestures with idle gaps,
// returning the trajectory and the sample index ranges of each gesture
// (start inclusive, end exclusive) for labeling.
func GestureSession(rate float64, kinds []GestureKind, center geom.Vec2, reach, speed float64) (*Trajectory, [][2]int) {
	b := NewBuilder(rate, geom.Pose{Pos: center})
	spans := make([][2]int, 0, len(kinds))
	b.Pause(0.5)
	for _, g := range kinds {
		start := len(b.samples)
		b.MoveDir(g.Angle(), reach, speed)
		b.Pause(0.15)
		b.MoveDir(g.Angle()+math.Pi, reach, speed)
		spans = append(spans, [2]int{start, len(b.samples)})
		b.Pause(0.6)
	}
	return b.Build(), spans
}
