package traj

import (
	"fmt"
	"math"

	"rim/internal/geom"
)

// Letter strokes are defined in a unit box [0,1]x[0,1] as single connected
// polylines (the physical array cannot teleport between strokes, so the
// "pen" stays down — matching the paper's desktop handwriting demo where
// the user slides the array continuously). Curved glyph parts are
// approximated by sampled quadratic Beziers.

// letterStrokes maps supported letters to their unit-box polylines.
var letterStrokes = map[rune][]geom.Vec2{}

func init() {
	v := func(x, y float64) geom.Vec2 { return geom.Vec2{X: x, Y: y} }

	// quad samples a quadratic Bezier p0->p2 with control p1.
	quad := func(p0, p1, p2 geom.Vec2, n int) []geom.Vec2 {
		out := make([]geom.Vec2, 0, n)
		for i := 1; i <= n; i++ {
			t := float64(i) / float64(n)
			a := p0.Lerp(p1, t)
			b := p1.Lerp(p2, t)
			out = append(out, a.Lerp(b, t))
		}
		return out
	}
	cat := func(parts ...[]geom.Vec2) []geom.Vec2 {
		var out []geom.Vec2
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}

	// R: up the stem, bowl out and back to mid-stem, diagonal leg.
	letterStrokes['R'] = cat(
		[]geom.Vec2{v(0.1, 0), v(0.1, 1)},
		quad(v(0.1, 1), v(0.9, 1.0), v(0.75, 0.75), 6),
		quad(v(0.75, 0.75), v(0.85, 0.5), v(0.1, 0.5), 6),
		[]geom.Vec2{v(0.8, 0)},
	)
	// I: single vertical bar.
	letterStrokes['I'] = []geom.Vec2{v(0.5, 0), v(0.5, 1)}
	// M: four straight strokes.
	letterStrokes['M'] = []geom.Vec2{v(0.05, 0), v(0.1, 1), v(0.5, 0.25), v(0.9, 1), v(0.95, 0)}
	// O: closed loop of two Beziers.
	letterStrokes['O'] = cat(
		[]geom.Vec2{v(0.5, 1)},
		quad(v(0.5, 1), v(-0.15, 0.5), v(0.5, 0), 10),
		quad(v(0.5, 0), v(1.15, 0.5), v(0.5, 1), 10),
	)
	// S: two opposing curves.
	letterStrokes['S'] = cat(
		[]geom.Vec2{v(0.85, 0.9)},
		quad(v(0.85, 0.9), v(0.1, 1.1), v(0.25, 0.6), 8),
		quad(v(0.25, 0.6), v(0.95, 0.45), v(0.75, 0.1), 8),
		quad(v(0.75, 0.1), v(0.4, -0.1), v(0.15, 0.15), 6),
	)
	// W: mirror of M.
	letterStrokes['W'] = []geom.Vec2{v(0.05, 1), v(0.25, 0), v(0.5, 0.75), v(0.75, 0), v(0.95, 1)}
	// L: down then right.
	letterStrokes['L'] = []geom.Vec2{v(0.1, 1), v(0.1, 0), v(0.9, 0)}
	// Z: top bar, diagonal, bottom bar.
	letterStrokes['Z'] = []geom.Vec2{v(0.1, 1), v(0.9, 1), v(0.1, 0), v(0.9, 0)}
	// C: single open curve.
	letterStrokes['C'] = cat(
		[]geom.Vec2{v(0.85, 0.85)},
		quad(v(0.85, 0.85), v(-0.2, 1.0), v(0.15, 0.5), 8),
		quad(v(0.15, 0.5), v(-0.2, 0.0), v(0.85, 0.15), 8),
	)
	// U: down, bowl, up.
	letterStrokes['U'] = cat(
		[]geom.Vec2{v(0.1, 1), v(0.1, 0.35)},
		quad(v(0.1, 0.35), v(0.5, -0.35), v(0.9, 0.35), 8),
		[]geom.Vec2{v(0.9, 1)},
	)
	// N: up, diagonal down, up.
	letterStrokes['N'] = []geom.Vec2{v(0.1, 0), v(0.1, 1), v(0.9, 0), v(0.9, 1)}
	// V: two strokes.
	letterStrokes['V'] = []geom.Vec2{v(0.1, 1), v(0.5, 0), v(0.9, 1)}
	// A: two legs, then back up to the crossbar (pen stays down).
	letterStrokes['A'] = []geom.Vec2{
		v(0.05, 0), v(0.5, 1), v(0.95, 0), v(0.725, 0.5), v(0.275, 0.5),
	}
	// B: stem, then two bowls.
	letterStrokes['B'] = cat(
		[]geom.Vec2{v(0.1, 0), v(0.1, 1)},
		quad(v(0.1, 1), v(0.95, 0.98), v(0.1, 0.52), 7),
		quad(v(0.1, 0.52), v(1.0, 0.5), v(0.1, 0), 7),
	)
	// D: stem then one large bowl.
	letterStrokes['D'] = cat(
		[]geom.Vec2{v(0.1, 0), v(0.1, 1)},
		quad(v(0.1, 1), v(1.05, 0.5), v(0.1, 0), 9),
	)
	// E: top bar, stem with retraced middle bar, bottom bar.
	letterStrokes['E'] = []geom.Vec2{
		v(0.9, 1), v(0.1, 1), v(0.1, 0.5), v(0.6, 0.5), v(0.1, 0.5), v(0.1, 0), v(0.9, 0),
	}
	// F: like E without the bottom bar.
	letterStrokes['F'] = []geom.Vec2{
		v(0.9, 1), v(0.1, 1), v(0.1, 0.5), v(0.6, 0.5), v(0.1, 0.5), v(0.1, 0),
	}
	// G: the C curve plus an inward hook.
	letterStrokes['G'] = cat(
		[]geom.Vec2{v(0.85, 0.85)},
		quad(v(0.85, 0.85), v(-0.2, 1.0), v(0.15, 0.5), 8),
		quad(v(0.15, 0.5), v(-0.2, 0.0), v(0.85, 0.15), 8),
		[]geom.Vec2{v(0.85, 0.45), v(0.55, 0.45)},
	)
	// H: two stems joined by a crossbar (with retracing).
	letterStrokes['H'] = []geom.Vec2{
		v(0.1, 1), v(0.1, 0), v(0.1, 0.5), v(0.9, 0.5), v(0.9, 1), v(0.9, 0),
	}
	// J: descender with a hook.
	letterStrokes['J'] = cat(
		[]geom.Vec2{v(0.7, 1), v(0.7, 0.3)},
		quad(v(0.7, 0.3), v(0.6, -0.15), v(0.15, 0.2), 7),
	)
	// K: stem, upper diagonal out and back, lower diagonal.
	letterStrokes['K'] = []geom.Vec2{
		v(0.1, 1), v(0.1, 0), v(0.1, 0.45), v(0.85, 1), v(0.1, 0.45), v(0.85, 0),
	}
	// P: stem plus the upper bowl.
	letterStrokes['P'] = cat(
		[]geom.Vec2{v(0.1, 0), v(0.1, 1)},
		quad(v(0.1, 1), v(0.95, 0.98), v(0.1, 0.5), 8),
	)
	// Q: the O loop plus a tail.
	letterStrokes['Q'] = cat(
		[]geom.Vec2{v(0.5, 1)},
		quad(v(0.5, 1), v(-0.15, 0.5), v(0.5, 0), 10),
		quad(v(0.5, 0), v(1.15, 0.5), v(0.5, 1), 10),
		[]geom.Vec2{v(0.5, 1), v(0.5, 0.95)},
	)
	// T: top bar then back to the middle, then the stem.
	letterStrokes['T'] = []geom.Vec2{v(0.1, 1), v(0.9, 1), v(0.5, 1), v(0.5, 0)}
	// X: one diagonal, back to the center, out the other arms.
	letterStrokes['X'] = []geom.Vec2{
		v(0.1, 1), v(0.9, 0), v(0.5, 0.5), v(0.1, 0), v(0.9, 1),
	}
	// Y: both upper arms, then the stem.
	letterStrokes['Y'] = []geom.Vec2{
		v(0.1, 1), v(0.5, 0.5), v(0.9, 1), v(0.5, 0.5), v(0.5, 0),
	}
}

// LetterPolyline returns the polyline of letter r scaled to size meters and
// translated to origin (lower-left corner of the glyph box).
func LetterPolyline(r rune, origin geom.Vec2, size float64) ([]geom.Vec2, error) {
	strokes, ok := letterStrokes[r]
	if !ok {
		return nil, fmt.Errorf("traj: letter %q has no stroke definition", r)
	}
	out := make([]geom.Vec2, len(strokes))
	for i, p := range strokes {
		out[i] = origin.Add(p.Scale(size))
	}
	return out, nil
}

// Letter builds a handwriting trajectory for letter r: the array slides
// along the glyph polyline at writeSpeed with brief pauses at the start and
// end. size is the glyph height in meters (the paper's demo letters are
// ~20 cm tall).
func Letter(rate float64, r rune, origin geom.Vec2, size, writeSpeed float64) (*Trajectory, error) {
	pts, err := LetterPolyline(r, origin, size)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(rate, geom.Pose{Pos: pts[0]})
	b.Pause(0.2)
	b.FollowPolyline(pts[1:], writeSpeed)
	b.Pause(0.2)
	return b.Build(), nil
}

// PolylineError computes the handwriting evaluation metric of §6.3.1: for
// each estimated point, the minimum projection distance to the ground-truth
// polyline; returns the mean over all points. Both inputs must be non-empty.
func PolylineError(estimate, truth []geom.Vec2) float64 {
	if len(estimate) == 0 || len(truth) == 0 {
		return math.NaN()
	}
	segs := make([]geom.Segment, 0, len(truth)-1)
	for i := 1; i < len(truth); i++ {
		segs = append(segs, geom.Segment{A: truth[i-1], B: truth[i]})
	}
	if len(segs) == 0 {
		segs = append(segs, geom.Segment{A: truth[0], B: truth[0]})
	}
	var sum float64
	for _, p := range estimate {
		best := math.Inf(1)
		for _, s := range segs {
			if d := s.DistToPoint(p); d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(len(estimate))
}
