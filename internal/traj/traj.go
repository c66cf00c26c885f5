// Package traj generates the motion ground truth for every experiment:
// straight desktop/cart moves, stop-and-go, square and back-and-forth paths,
// sideway movements (translation without turning), in-place rotations,
// handwriting strokes and gesture strokes. Trajectories are sampled at the
// CSI packet rate so each sample corresponds to one broadcast packet.
package traj

import (
	"math"

	"rim/internal/geom"
)

// Sample is the pose of the device body at one instant, with its ground
// truth velocity and angular velocity.
type Sample struct {
	T      float64   // seconds since trajectory start
	Pose   geom.Pose // body pose in the world frame
	Vel    geom.Vec2 // world-frame velocity, m/s
	AngVel float64   // rad/s, CCW positive
}

// Trajectory is a uniformly sampled motion history.
type Trajectory struct {
	Rate    float64 // samples per second
	Samples []Sample
}

// Duration returns the trajectory length in seconds.
func (tr *Trajectory) Duration() float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	return tr.Samples[len(tr.Samples)-1].T
}

// TotalDistance returns the ground-truth path length in meters.
func (tr *Trajectory) TotalDistance() float64 {
	var d float64
	for i := 1; i < len(tr.Samples); i++ {
		d += tr.Samples[i].Pose.Pos.Dist(tr.Samples[i-1].Pose.Pos)
	}
	return d
}

// DistanceUpTo returns the path length covered through sample index i.
func (tr *Trajectory) DistanceUpTo(i int) float64 {
	var d float64
	if i >= len(tr.Samples) {
		i = len(tr.Samples) - 1
	}
	for k := 1; k <= i; k++ {
		d += tr.Samples[k].Pose.Pos.Dist(tr.Samples[k-1].Pose.Pos)
	}
	return d
}

// Positions returns the sequence of body positions.
func (tr *Trajectory) Positions() []geom.Vec2 {
	out := make([]geom.Vec2, len(tr.Samples))
	for i, s := range tr.Samples {
		out[i] = s.Pose.Pos
	}
	return out
}

// AddLateralSway perturbs positions with a sinusoidal sway perpendicular to
// the instantaneous velocity: amplitude meters at freq Hz. It models the
// hand/cart wobble that makes real retracing deviate from a perfect line
// (§3.2 "deviated retracing"). Stationary samples are left untouched.
func (tr *Trajectory) AddLateralSway(amplitude, freq float64) {
	for i := range tr.Samples {
		s := &tr.Samples[i]
		v := s.Vel
		if v.Norm() < 1e-6 {
			continue
		}
		perp := v.Unit().Perp()
		off := amplitude * math.Sin(2*math.Pi*freq*s.T)
		s.Pose.Pos = s.Pose.Pos.Add(perp.Scale(off))
	}
}

// Builder incrementally constructs a trajectory from motion segments.
// The device orientation is controlled independently of the direction of
// motion, which is what lets us express sideway movements (move without
// turning) and deviated retracing (orientation offset from the path).
type Builder struct {
	rate    float64
	dt      float64
	t       float64
	pose    geom.Pose
	samples []Sample
}

// NewBuilder starts a trajectory at the given pose, sampled at rate Hz.
// The initial sample is recorded immediately.
func NewBuilder(rate float64, start geom.Pose) *Builder {
	b := &Builder{rate: rate, dt: 1 / rate, pose: start}
	b.samples = append(b.samples, Sample{T: 0, Pose: start})
	return b
}

// Pose returns the current (latest) pose.
func (b *Builder) Pose() geom.Pose { return b.pose }

// NumSamples returns the number of samples recorded so far — useful for
// labeling sample ranges while composing a trajectory.
func (b *Builder) NumSamples() int { return len(b.samples) }

func (b *Builder) push(vel geom.Vec2, angVel float64) {
	b.t += b.dt
	b.samples = append(b.samples, Sample{T: b.t, Pose: b.pose, Vel: vel, AngVel: angVel})
}

// Pause holds the device still for the given duration.
func (b *Builder) Pause(dur float64) *Builder {
	n := int(math.Round(dur * b.rate))
	for i := 0; i < n; i++ {
		b.push(geom.Vec2{}, 0)
	}
	return b
}

// MoveDir translates the device by dist meters along the world direction
// angle at the given speed, keeping the body orientation unchanged.
func (b *Builder) MoveDir(angle, dist, speed float64) *Builder {
	if dist <= 0 || speed <= 0 {
		return b
	}
	vel := geom.FromPolar(speed, angle)
	step := speed * b.dt
	n := int(math.Round(dist / step))
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		b.pose.Pos = b.pose.Pos.Add(vel.Scale(b.dt))
		b.push(vel, 0)
	}
	return b
}

// MoveTo translates in a straight line to target at the given speed,
// keeping orientation (a "sideway move" when the direction differs from the
// body heading).
func (b *Builder) MoveTo(target geom.Vec2, speed float64) *Builder {
	d := target.Sub(b.pose.Pos)
	return b.MoveDir(d.Angle(), d.Norm(), speed)
}

// MoveBody translates along a body-frame direction (radians in the body
// frame) — convenient for desktop experiments where motion is expressed
// relative to the array.
func (b *Builder) MoveBody(bodyAngle, dist, speed float64) *Builder {
	return b.MoveDir(b.pose.DirToWorld(bodyAngle), dist, speed)
}

// RotateInPlace rotates the body by angle radians (signed) at angSpeed
// rad/s without translating.
func (b *Builder) RotateInPlace(angle, angSpeed float64) *Builder {
	if angSpeed <= 0 || angle == 0 {
		return b
	}
	sign := 1.0
	if angle < 0 {
		sign = -1
		angle = -angle
	}
	step := angSpeed * b.dt
	n := int(math.Round(angle / step))
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		b.pose.Theta = geom.NormalizeAngle(b.pose.Theta + sign*step)
		b.push(geom.Vec2{}, sign*angSpeed)
	}
	return b
}

// FollowPolyline traces the waypoints at constant speed with fixed
// orientation.
func (b *Builder) FollowPolyline(points []geom.Vec2, speed float64) *Builder {
	for _, p := range points {
		b.MoveTo(p, speed)
	}
	return b
}

// Build returns the accumulated trajectory. The builder may not be reused.
func (b *Builder) Build() *Trajectory {
	return &Trajectory{Rate: b.rate, Samples: b.samples}
}

// Line is a convenience: a straight move of dist meters along world
// direction angle at the given speed, starting from start with body
// orientation bodyTheta, sampled at rate.
func Line(rate float64, start geom.Vec2, bodyTheta, angle, dist, speed float64) *Trajectory {
	return NewBuilder(rate, geom.Pose{Pos: start, Theta: bodyTheta}).
		MoveDir(angle, dist, speed).Build()
}

// BackAndForth moves dist meters along angle and back, pausing briefly at
// the turn.
func BackAndForth(rate float64, start geom.Vec2, angle, dist, speed float64) *Trajectory {
	return NewBuilder(rate, geom.Pose{Pos: start}).
		MoveDir(angle, dist, speed).
		Pause(0.3).
		MoveDir(angle+math.Pi, dist, speed).
		Build()
}

// Square traces a square of the given side length starting at start, moving
// +X, +Y, -X, -Y, with fixed body orientation (all but the first leg are
// sideway movements for a linear array).
func Square(rate float64, start geom.Vec2, side, speed float64) *Trajectory {
	b := NewBuilder(rate, geom.Pose{Pos: start})
	b.MoveDir(0, side, speed)
	b.MoveDir(math.Pi/2, side, speed)
	b.MoveDir(math.Pi, side, speed)
	b.MoveDir(-math.Pi/2, side, speed)
	return b.Build()
}

// StopAndGo alternates nMoves straight segments of dist meters with pauses
// of pause seconds — the Fig. 7 movement-detection workload.
func StopAndGo(rate float64, start geom.Vec2, angle, dist, speed, pause float64, nMoves int) *Trajectory {
	b := NewBuilder(rate, geom.Pose{Pos: start})
	b.Pause(pause)
	for i := 0; i < nMoves; i++ {
		b.MoveDir(angle, dist, speed)
		b.Pause(pause)
	}
	return b.Build()
}
