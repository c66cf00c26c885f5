package array

import (
	"math"
	"testing"

	"rim/internal/geom"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLinear3Geometry(t *testing.T) {
	a := NewLinear3(0.029)
	if a.NumAntennas() != 3 {
		t.Fatalf("antennas = %d", a.NumAntennas())
	}
	pairs := a.Pairs()
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	// Adjacent separation = spacing, outer pair = 2*spacing.
	if !almost(a.Separation(Pair{0, 1}), 0.029, 1e-12) {
		t.Errorf("sep(0,1) = %v", a.Separation(Pair{0, 1}))
	}
	if !almost(a.Separation(Pair{0, 2}), 0.058, 1e-12) {
		t.Errorf("sep(0,2) = %v", a.Separation(Pair{0, 2}))
	}
}

func TestHexagonalGeometry(t *testing.T) {
	spacing := 0.029
	a := NewHexagonal(spacing)
	if a.NumAntennas() != 6 {
		t.Fatalf("antennas = %d", a.NumAntennas())
	}
	if len(a.Pairs()) != 15 {
		t.Fatalf("pairs = %d", len(a.Pairs()))
	}
	// Regular hexagon: adjacent separation equals circumradius.
	ring := a.AdjacentRing()
	if len(ring) != 6 {
		t.Fatalf("ring = %d", len(ring))
	}
	for _, p := range ring {
		if !almost(a.Separation(p), spacing, 1e-9) {
			t.Errorf("adjacent sep(%v) = %v, want %v", p, a.Separation(p), spacing)
		}
	}
	if !almost(a.Radius(), spacing, 1e-9) {
		t.Errorf("radius = %v", a.Radius())
	}
	// NIC split: antennas 0-2 on NIC 0, 3-5 on NIC 1.
	for k, ant := range a.Antennas {
		wantNIC := 0
		if k >= 3 {
			wantNIC = 1
		}
		if ant.NIC != wantNIC {
			t.Errorf("antenna %d NIC = %d", k, ant.NIC)
		}
	}
}

func TestHexagonalParallelGroups(t *testing.T) {
	a := NewHexagonal(0.029)
	groups := a.ParallelGroups(geom.Rad(1), 1e-6)
	// 15 pairs fall into groups by (direction mod π, separation):
	// adjacent side pairs: 6 pairs, 3 directions -> 3 groups of 2
	// "skip-one" pairs (sep √3 r): 6 pairs, 3 directions -> 3 groups of 2
	// diameters: 3 pairs, 3 directions -> 3 groups of 1
	if len(groups) != 9 {
		t.Fatalf("groups = %d, want 9", len(groups))
	}
	twos, ones := 0, 0
	for _, g := range groups {
		switch len(g.Pairs) {
		case 2:
			twos++
		case 1:
			ones++
		default:
			t.Errorf("unexpected group size %d", len(g.Pairs))
		}
		// All members must share direction and separation.
		for _, p := range g.Pairs {
			if geom.AbsAngleDiff(a.Direction(p), g.Direction) > geom.Rad(1) {
				t.Errorf("pair %v direction %v != group %v",
					p, geom.Deg(a.Direction(p)), geom.Deg(g.Direction))
			}
			if !almost(a.Separation(p), g.Separation, 1e-9) {
				t.Errorf("pair %v separation mismatch", p)
			}
		}
	}
	if twos != 6 || ones != 3 {
		t.Errorf("group sizes: %d pairs-of-2, %d singletons; want 6 and 3", twos, ones)
	}
}

func TestPairDirectionConvention(t *testing.T) {
	a := NewLinear3(0.03)
	// Antenna 0 at -x, antenna 2 at +x: ray 0->2 points along +X.
	if d := a.Direction(Pair{0, 2}); !almost(d, 0, 1e-12) {
		t.Errorf("direction(0,2) = %v", d)
	}
	if d := a.Direction(Pair{2, 0}); !almost(math.Abs(d), math.Pi, 1e-12) {
		t.Errorf("direction(2,0) = %v", d)
	}
}

func TestWorldPositions(t *testing.T) {
	a := NewPairArray(0.06)
	pose := geom.Pose{Pos: geom.Vec2{X: 1, Y: 2}, Theta: math.Pi / 2}
	pos := a.WorldPositions(pose, nil)
	if len(pos) != 2 {
		t.Fatalf("len = %d", len(pos))
	}
	// Body (−0.03, 0) rotated 90° -> (0, −0.03), translated -> (1, 1.97).
	if !almost(pos[0].X, 1, 1e-12) || !almost(pos[0].Y, 1.97, 1e-12) {
		t.Errorf("pos[0] = %v", pos[0])
	}
	// Reuse should not grow the slice.
	pos2 := a.WorldPositions(pose, pos)
	if len(pos2) != 2 {
		t.Errorf("reuse len = %d", len(pos2))
	}
}

func TestLShape(t *testing.T) {
	a := NewLShape(0.029)
	if a.NumAntennas() != 3 {
		t.Fatal("L-shape must have 3 antennas")
	}
	// Horizontal pair (0,1) and vertical pair (0,2) are orthogonal.
	dh := a.Direction(Pair{0, 1})
	dv := a.Direction(Pair{0, 2})
	if !almost(geom.AbsAngleDiff(dh, dv), math.Pi/2, 1e-9) {
		t.Errorf("L-shape pair angle = %v", geom.Deg(geom.AbsAngleDiff(dh, dv)))
	}
}

func TestString(t *testing.T) {
	if s := NewHexagonal(0.03).String(); s != "hexagonal(6 antennas)" {
		t.Errorf("String = %q", s)
	}
}
