package geom

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVecBasicOps(t *testing.T) {
	v := Vec2{3, 4}
	w := Vec2{-1, 2}
	if got := v.Add(w); got != (Vec2{2, 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec2{4, 2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec2{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 5 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Cross(w); got != 10 {
		t.Errorf("Cross = %v", got)
	}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := v.NormSq(); got != 25 {
		t.Errorf("NormSq = %v", got)
	}
	if got := v.Dist(w); !almost(got, math.Hypot(4, 2)) {
		t.Errorf("Dist = %v", got)
	}
}

func TestVecUnit(t *testing.T) {
	u := Vec2{3, 4}.Unit()
	if !almost(u.Norm(), 1) {
		t.Errorf("Unit norm = %v", u.Norm())
	}
	if got := (Vec2{}).Unit(); got != (Vec2{}) {
		t.Errorf("Unit of zero = %v, want zero", got)
	}
}

func TestVecRotate(t *testing.T) {
	v := Vec2{1, 0}
	r := v.Rotate(math.Pi / 2)
	if !almost(r.X, 0) || !almost(r.Y, 1) {
		t.Errorf("Rotate 90 = %v", r)
	}
	if p := v.Perp(); !almost(p.X, 0) || !almost(p.Y, 1) {
		t.Errorf("Perp = %v", p)
	}
}

func TestVecRotatePreservesNorm(t *testing.T) {
	f := func(x, y, theta float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(theta) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(theta, 0) {
			return true
		}
		// Keep magnitudes sane so float error bounds hold.
		x = math.Mod(x, 1e6)
		y = math.Mod(y, 1e6)
		theta = math.Mod(theta, 1e3)
		v := Vec2{x, y}
		r := v.Rotate(theta)
		return math.Abs(r.Norm()-v.Norm()) < 1e-6*(1+v.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromPolarRoundTrip(t *testing.T) {
	for _, th := range []float64{0, 0.3, math.Pi / 2, -2.5, 3.1} {
		v := FromPolar(2.5, th)
		if !almost(v.Norm(), 2.5) {
			t.Errorf("FromPolar norm = %v", v.Norm())
		}
		if !almost(NormalizeAngle(v.Angle()-th), 0) {
			t.Errorf("FromPolar angle = %v want %v", v.Angle(), th)
		}
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{3 * math.Pi, math.Pi},
		{-3 * math.Pi, math.Pi},
		{math.Pi / 2, math.Pi / 2},
		{5 * math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); !almost(got, c.want) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeAngleRange(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		theta = math.Mod(theta, 1e4)
		n := NormalizeAngle(theta)
		return n > -math.Pi-eps && n <= math.Pi+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleDiff(t *testing.T) {
	if got := AngleDiff(0.1, -0.1); !almost(got, 0.2) {
		t.Errorf("AngleDiff = %v", got)
	}
	// Wrap-around: 175 deg vs -175 deg differ by 10 deg, not 350.
	if got := AbsAngleDiff(Rad(175), Rad(-175)); !almost(got, Rad(10)) {
		t.Errorf("AbsAngleDiff wrap = %v deg", Deg(got))
	}
}

func TestDegRadRoundTrip(t *testing.T) {
	for _, d := range []float64{0, 30, 90, -45, 180, 359} {
		if got := Deg(Rad(d)); !almost(got, d) {
			t.Errorf("Deg(Rad(%v)) = %v", d, got)
		}
	}
}

func TestSegmentIntersects(t *testing.T) {
	s := Segment{Vec2{0, 0}, Vec2{2, 2}}
	cross := Segment{Vec2{0, 2}, Vec2{2, 0}}
	if !s.Intersects(cross) {
		t.Error("crossing segments not detected")
	}
	apart := Segment{Vec2{3, 3}, Vec2{4, 4}}
	if s.Intersects(apart) {
		t.Error("disjoint collinear segments reported intersecting")
	}
	touch := Segment{Vec2{2, 2}, Vec2{3, 0}}
	if !s.Intersects(touch) {
		t.Error("endpoint touch not detected")
	}
	parallel := Segment{Vec2{0, 1}, Vec2{2, 3}}
	if s.Intersects(parallel) {
		t.Error("parallel segments reported intersecting")
	}
}

func TestSegmentDistToPoint(t *testing.T) {
	s := Segment{Vec2{0, 0}, Vec2{10, 0}}
	if got := s.DistToPoint(Vec2{5, 3}); !almost(got, 3) {
		t.Errorf("DistToPoint mid = %v", got)
	}
	if got := s.DistToPoint(Vec2{-4, 3}); !almost(got, 5) {
		t.Errorf("DistToPoint beyond A = %v", got)
	}
	if got := s.DistToPoint(Vec2{13, 4}); !almost(got, 5) {
		t.Errorf("DistToPoint beyond B = %v", got)
	}
	deg := Segment{Vec2{1, 1}, Vec2{1, 1}}
	if got := deg.DistToPoint(Vec2{4, 5}); !almost(got, 5) {
		t.Errorf("degenerate DistToPoint = %v", got)
	}
}

func TestSegmentAccessors(t *testing.T) {
	s := Segment{Vec2{0, 0}, Vec2{4, 0}}
	if !almost(s.Length(), 4) {
		t.Errorf("Length = %v", s.Length())
	}
	if d := s.Dir(); !almost(d.X, 1) || !almost(d.Y, 0) {
		t.Errorf("Dir = %v", d)
	}
	if p := s.PointAt(0.25); !almost(p.X, 1) {
		t.Errorf("PointAt = %v", p)
	}
}

func TestRect(t *testing.T) {
	r := Rect{Vec2{0, 0}, Vec2{4, 2}}
	if !r.Contains(Vec2{1, 1}) || !r.Contains(Vec2{0, 0}) || r.Contains(Vec2{5, 1}) {
		t.Error("Contains failed")
	}
	if c := r.Center(); !almost(c.X, 2) || !almost(c.Y, 1) {
		t.Errorf("Center = %v", c)
	}
	// Segment passing through.
	if !r.IntersectsSegment(Segment{Vec2{-1, 1}, Vec2{5, 1}}) {
		t.Error("through-segment not detected")
	}
	// Segment fully inside.
	if !r.IntersectsSegment(Segment{Vec2{1, 1}, Vec2{2, 1}}) {
		t.Error("inner segment not detected")
	}
	// Segment fully outside.
	if r.IntersectsSegment(Segment{Vec2{-1, 3}, Vec2{5, 3}}) {
		t.Error("outer segment reported intersecting")
	}
}

func TestPoseRoundTrip(t *testing.T) {
	p := Pose{Pos: Vec2{3, -2}, Theta: Rad(40)}
	body := Vec2{0.5, 1.2}
	world := p.ToWorld(body)
	// The inverse pose: rotate the offset back by -Theta.
	back := Pose{Theta: -p.Theta}.ToWorld(world.Sub(p.Pos))
	if !almost(back.X, body.X) || !almost(back.Y, body.Y) {
		t.Errorf("inverse of ToWorld(v) = %v, want %v", back, body)
	}
}

func TestPoseDirRoundTrip(t *testing.T) {
	p := Pose{Theta: Rad(100)}
	d := Rad(150)
	w := p.DirToWorld(d)
	if !almost(NormalizeAngle(w), NormalizeAngle(Rad(250))) {
		t.Errorf("DirToWorld = %v deg", Deg(w))
	}
}

func TestPoseTranslationOnly(t *testing.T) {
	p := Pose{Pos: Vec2{1, 1}}
	if got := p.ToWorld(Vec2{2, 3}); got != (Vec2{3, 4}) {
		t.Errorf("ToWorld = %v", got)
	}
}

func TestVecLerp(t *testing.T) {
	a, b := Vec2{0, 0}, Vec2{10, 20}
	if got := a.Lerp(b, 0.5); !almost(got.X, 5) || !almost(got.Y, 10) {
		t.Errorf("Lerp = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp 0 = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp 1 = %v", got)
	}
}
