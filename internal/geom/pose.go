package geom

// Pose is a rigid 2D pose: the position of a body origin in the world frame
// plus the body orientation Theta (rotation of the body frame relative to
// the world frame, CCW radians).
type Pose struct {
	Pos   Vec2
	Theta float64
}

// ToWorld maps a point expressed in the body frame into the world frame.
func (p Pose) ToWorld(body Vec2) Vec2 {
	return p.Pos.Add(body.Rotate(p.Theta))
}

// DirToWorld rotates a body-frame direction into the world frame.
func (p Pose) DirToWorld(theta float64) float64 {
	return NormalizeAngle(theta + p.Theta)
}
