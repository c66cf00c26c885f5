package geom

import "math"

// Segment is a closed 2D line segment between A and B.
type Segment struct {
	A, B Vec2
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Dir returns the unit direction from A to B.
func (s Segment) Dir() Vec2 { return s.B.Sub(s.A).Unit() }

// PointAt returns A + t*(B-A) for t in [0,1].
func (s Segment) PointAt(t float64) Vec2 { return s.A.Lerp(s.B, t) }

// Intersects reports whether segments s and o share at least one point,
// including touching endpoints and collinear overlap.
func (s Segment) Intersects(o Segment) bool {
	d1 := orient(o.A, o.B, s.A)
	d2 := orient(o.A, o.B, s.B)
	d3 := orient(s.A, s.B, o.A)
	d4 := orient(s.A, s.B, o.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	// Collinear / endpoint-touching cases.
	if d1 == 0 && onSegment(o.A, o.B, s.A) {
		return true
	}
	if d2 == 0 && onSegment(o.A, o.B, s.B) {
		return true
	}
	if d3 == 0 && onSegment(s.A, s.B, o.A) {
		return true
	}
	if d4 == 0 && onSegment(s.A, s.B, o.B) {
		return true
	}
	return false
}

// DistToPoint returns the minimum distance from p to the segment.
func (s Segment) DistToPoint(p Vec2) float64 {
	ab := s.B.Sub(s.A)
	den := ab.NormSq()
	if den == 0 {
		return s.A.Dist(p)
	}
	t := p.Sub(s.A).Dot(ab) / den
	t = math.Max(0, math.Min(1, t))
	return s.PointAt(t).Dist(p)
}

func orient(a, b, c Vec2) float64 { return b.Sub(a).Cross(c.Sub(a)) }

func onSegment(a, b, p Vec2) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// Rect is an axis-aligned rectangle, used for rooms and pillars.
type Rect struct {
	Min, Max Vec2
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Vec2) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Center returns the rectangle center.
func (r Rect) Center() Vec2 { return r.Min.Lerp(r.Max, 0.5) }

// Edges returns the four boundary segments of r in CCW order.
func (r Rect) Edges() [4]Segment {
	bl := r.Min
	br := Vec2{r.Max.X, r.Min.Y}
	tr := r.Max
	tl := Vec2{r.Min.X, r.Max.Y}
	return [4]Segment{{bl, br}, {br, tr}, {tr, tl}, {tl, bl}}
}

// IntersectsSegment reports whether segment s crosses or touches the
// rectangle boundary or interior.
func (r Rect) IntersectsSegment(s Segment) bool {
	if r.Contains(s.A) || r.Contains(s.B) {
		return true
	}
	for _, e := range r.Edges() {
		if e.Intersects(s) {
			return true
		}
	}
	return false
}
