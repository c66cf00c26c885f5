// Package array models the receive antenna arrays RIM runs on: the
// 3-antenna linear array available on a single COTS NIC, the L-shaped
// 3-antenna pointer unit, and the 6-element hexagonal array built from two
// NICs (Fig. 2 of the paper). It enumerates antenna pairs, the motion
// directions they can measure, and the parallel-isometric pair groups whose
// alignment matrices are averaged (§4.2).
package array

import (
	"fmt"
	"math"

	"rim/internal/geom"
)

// Antenna is one physical receive element.
type Antenna struct {
	// Pos is the element position in the body (array) frame, meters,
	// relative to the array center.
	Pos geom.Vec2
	// NIC is the index of the WiFi card this element belongs to (0 or 1
	// for the hexagonal prototype). Elements on different NICs share no
	// phase reference — only packet-level synchronization.
	NIC int
}

// Pair is an ordered pair of antenna indices (I, J). By the paper's
// convention, a positive alignment lag on pair (I, J) means antenna I is
// retracing antenna J's footprints, i.e. the array moves along the ray from
// I towards J.
type Pair struct {
	I, J int
}

// Array is a rigid arrangement of antennas.
type Array struct {
	Name     string
	Antennas []Antenna
	pairs    []Pair
}

// NumAntennas returns the element count.
func (a *Array) NumAntennas() int { return len(a.Antennas) }

// Pairs returns all unordered antenna pairs (i < j) once.
func (a *Array) Pairs() []Pair {
	if a.pairs == nil {
		for i := 0; i < len(a.Antennas); i++ {
			for j := i + 1; j < len(a.Antennas); j++ {
				a.pairs = append(a.pairs, Pair{I: i, J: j})
			}
		}
	}
	return a.pairs
}

// Separation returns the element spacing |pos_j - pos_i| for a pair.
func (a *Array) Separation(p Pair) float64 {
	return a.Antennas[p.I].Pos.Dist(a.Antennas[p.J].Pos)
}

// Direction returns the body-frame direction of the ray from antenna I to
// antenna J in radians.
func (a *Array) Direction(p Pair) float64 {
	return a.Antennas[p.J].Pos.Sub(a.Antennas[p.I].Pos).Angle()
}

// ParallelGroup is a set of pairs sharing direction (mod π) and separation;
// their alignment matrices carry the same delay and are averaged for
// robustness (§4.2 of the paper).
type ParallelGroup struct {
	// Pairs all share Direction (within tolerance) and Separation. Pair
	// orientations are canonicalized so every member points the same way.
	Pairs []Pair
	// Direction is the body-frame direction of the I->J ray, radians.
	Direction float64
	// Separation is the common element spacing in meters.
	Separation float64
}

// ParallelGroups partitions all pairs into parallel-isometric groups.
// Pairs whose directions differ by π are flipped to a canonical orientation
// (direction in (-π/2, π/2] stays, otherwise the pair is reversed) so that
// lags from grouped matrices agree in sign.
func (a *Array) ParallelGroups(angTol, sepTol float64) []ParallelGroup {
	var groups []ParallelGroup
	for _, p := range a.Pairs() {
		d := a.Direction(p)
		// Canonical orientation: direction in (-π/2, π/2].
		if d <= -math.Pi/2 || d > math.Pi/2 {
			p = Pair{I: p.J, J: p.I}
			d = a.Direction(p)
		}
		sep := a.Separation(p)
		placed := false
		for gi := range groups {
			g := &groups[gi]
			if geom.AbsAngleDiff(g.Direction, d) < angTol &&
				math.Abs(g.Separation-sep) < sepTol {
				g.Pairs = append(g.Pairs, p)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, ParallelGroup{
				Pairs:      []Pair{p},
				Direction:  d,
				Separation: sep,
			})
		}
	}
	return groups
}

// Subset returns a new Array keeping only the antennas at the given global
// indices (strictly ascending). It is the geometric basis of degraded
// operation: when an RF chain dies mid-stream, the pipeline re-derives the
// pair groups from the surviving elements and keeps measuring with them.
// Element positions stay in the original body frame, so headings from the
// reduced array remain directly comparable with full-array output.
func (a *Array) Subset(idx []int) (*Array, error) {
	if len(idx) == 0 {
		return nil, fmt.Errorf("array: empty antenna subset")
	}
	out := &Array{Name: fmt.Sprintf("%s/sub%d", a.Name, len(idx))}
	prev := -1
	for _, i := range idx {
		if i <= prev || i < 0 || i >= len(a.Antennas) {
			return nil, fmt.Errorf("array: subset indices must be strictly ascending and in [0,%d): got %v",
				len(a.Antennas), idx)
		}
		prev = i
		out.Antennas = append(out.Antennas, a.Antennas[i])
	}
	return out, nil
}

// AdjacentRing returns the ordered ring of adjacent pairs for circular
// arrays (antenna i with antenna (i+1) mod n), used for rotation detection:
// during an in-place rotation every adjacent pair aligns simultaneously.
func (a *Array) AdjacentRing() []Pair {
	n := len(a.Antennas)
	out := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Pair{I: i, J: (i + 1) % n})
	}
	return out
}

// Radius returns the maximum element distance from the array center (the
// centroid is assumed to be the body-frame origin).
func (a *Array) Radius() float64 {
	var r float64
	for _, ant := range a.Antennas {
		if d := ant.Pos.Norm(); d > r {
			r = d
		}
	}
	return r
}

// WorldPositions returns the world-frame position of every element for the
// given body pose, appending into dst (which may be nil).
func (a *Array) WorldPositions(pose geom.Pose, dst []geom.Vec2) []geom.Vec2 {
	dst = dst[:0]
	for _, ant := range a.Antennas {
		dst = append(dst, pose.ToWorld(ant.Pos))
	}
	return dst
}

// NewLinear3 builds the 3-antenna linear array of a single COTS NIC with
// the given element spacing (the paper uses λ/2 = 2.58 cm... strictly
// 2.9 cm at 5.18 GHz; the paper quotes 2.58 cm for its channel). Elements
// lie on the body X axis, centered.
func NewLinear3(spacing float64) *Array {
	return &Array{
		Name: "linear3",
		Antennas: []Antenna{
			{Pos: geom.Vec2{X: -spacing}, NIC: 0},
			{Pos: geom.Vec2{X: 0}, NIC: 0},
			{Pos: geom.Vec2{X: spacing}, NIC: 0},
		},
	}
}

// NewLShape builds the compact 3-antenna "L" pointer unit of the gesture
// application (§6.3.2): one corner element, one along +X, one along +Y.
func NewLShape(spacing float64) *Array {
	return &Array{
		Name: "lshape",
		Antennas: []Antenna{
			{Pos: geom.Vec2{X: 0, Y: 0}, NIC: 0},
			{Pos: geom.Vec2{X: spacing, Y: 0}, NIC: 0},
			{Pos: geom.Vec2{X: 0, Y: spacing}, NIC: 0},
		},
	}
}

// NewHexagonal builds the 6-element circular array of Fig. 2: two 3-antenna
// NICs arranged on a circle of radius equal to the element spacing (a
// regular hexagon's side equals its circumradius). Antennas 0-2 belong to
// NIC 0 and 3-5 to NIC 1; element k sits at angle 60°·k.
func NewHexagonal(spacing float64) *Array {
	arr := &Array{Name: "hexagonal"}
	for k := 0; k < 6; k++ {
		nic := 0
		if k >= 3 {
			nic = 1
		}
		arr.Antennas = append(arr.Antennas, Antenna{
			Pos: geom.FromPolar(spacing, geom.Rad(60*float64(k))),
			NIC: nic,
		})
	}
	return arr
}

// NewPairArray builds a minimal 2-antenna array for 1D experiments (Fig. 1).
func NewPairArray(spacing float64) *Array {
	return &Array{
		Name: "pair",
		Antennas: []Antenna{
			{Pos: geom.Vec2{X: -spacing / 2}, NIC: 0},
			{Pos: geom.Vec2{X: spacing / 2}, NIC: 0},
		},
	}
}

// String implements fmt.Stringer.
func (a *Array) String() string {
	return fmt.Sprintf("%s(%d antennas)", a.Name, len(a.Antennas))
}
