package core

import (
	"math"
	"testing"

	"rim/internal/array"
	"rim/internal/geom"
	"rim/internal/traj"
	"rim/internal/trrs"
)

// Parity bounds of the default vector kernel against the bit-exact
// sequential oracle. The kernels agree to 1e-12 relative per TRRS value,
// so every alignment decision (segmentation, DP path, winning pair group)
// is expected to coincide and the estimates to differ only in the last
// bits of their sub-slot refinement; the bounds sit orders of magnitude
// below the pipeline's physical accuracy (±0.12 m, ±5°, ±60° on these
// walks) and orders above that rounding.
const (
	parityDistance = 1e-6 // m, per segment and integrated per stream
	parityAngle    = 1e-9 // rad, heading and rotation angle
	paritySpeed    = 1e-9 // m/s or rad/s, per streamed slot
)

// drift is |a − b|, 0 when both are NaN and +Inf when only one is, so a
// NaN on one side fails the bound instead of slipping past the compare.
func drift(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		if math.IsNaN(a) && math.IsNaN(b) {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a - b)
}

// parityWalk is one Figs. 11–13 scenario the parity test replays.
type parityWalk struct {
	name   string
	arr    *array.Array
	tr     *traj.Trajectory
	seed   int64
	window float64 // lag window (s); rotation needs a wider one
}

func parityWalks() []parityWalk {
	const rate = 100.0
	start := geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}}

	// Fig. 11: distance of a straight walk on the linear array.
	line := traj.NewBuilder(rate, start)
	line.Pause(0.5)
	line.MoveDir(0, 1.5, 0.4)
	line.Pause(0.5)

	// Fig. 12: heading over several body directions, hexagonal array.
	multi := traj.NewBuilder(rate, start)
	multi.Pause(0.4)
	for _, deg := range []float64{0, 60, 150, 270} {
		multi.MoveDir(geom.Rad(deg), 0.5, 0.35)
		multi.Pause(0.5)
	}

	// Fig. 13: a half turn in place, hexagonal array.
	turn := traj.NewBuilder(rate, start)
	turn.Pause(0.4)
	turn.RotateInPlace(geom.Rad(180), geom.Rad(180))
	turn.Pause(0.4)

	return []parityWalk{
		{name: "distance", arr: array.NewLinear3(spacing), tr: line.Build(), seed: 42, window: 0.3},
		{name: "heading", arr: array.NewHexagonal(spacing), tr: multi.Build(), seed: 3, window: 0.3},
		{name: "rotation", arr: array.NewHexagonal(spacing), tr: turn.Build(), seed: 23, window: 0.6},
	}
}

// TestVectorDefaultParity pins the default vector kernel to the
// sequential oracle at pipeline level (per-segment kind, distance,
// heading and rotation angle) and at stream level (per-slot motion state
// and rates, integrated distance and rotation) on the Figs. 11–13 walks.
func TestVectorDefaultParity(t *testing.T) {
	if DefaultConfig(nil).Kernel != trrs.KernelVector {
		t.Fatal("DefaultConfig must select the vector kernel")
	}
	for _, w := range parityWalks() {
		t.Run(w.name, func(t *testing.T) {
			s := buildSeries(t, w.tr, w.arr, w.seed)
			cfg := func(k trrs.Kernel) Config {
				c := testConfigV20(w.arr)
				c.WindowSeconds = w.window
				c.Kernel = k
				return c
			}

			ref, err := ProcessSeries(s, cfg(trrs.KernelSequential))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ProcessSeries(s, cfg(trrs.KernelVector))
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Segments) == 0 {
				t.Fatal("oracle found no segments: the walk exercises nothing")
			}
			if len(got.Segments) != len(ref.Segments) {
				t.Fatalf("vector segments = %d, sequential = %d", len(got.Segments), len(ref.Segments))
			}
			var maxDist, maxAng float64
			for i := range ref.Segments {
				r, g := ref.Segments[i], got.Segments[i]
				if g.Kind != r.Kind || g.Start != r.Start || g.End != r.End {
					t.Fatalf("segment %d = %v [%d,%d), sequential %v [%d,%d)",
						i, g.Kind, g.Start, g.End, r.Kind, r.Start, r.End)
				}
				maxDist = math.Max(maxDist, drift(g.Distance, r.Distance))
				if r.Kind == MotionTranslate {
					maxAng = math.Max(maxAng, drift(geom.AngleDiff(g.HeadingBody, r.HeadingBody), 0))
				}
				maxAng = math.Max(maxAng, drift(g.Angle, r.Angle))
			}
			t.Logf("pipeline: %d segments, max distance drift %.2e m, max angle drift %.2e rad",
				len(ref.Segments), maxDist, maxAng)
			if maxDist > parityDistance {
				t.Errorf("segment distance drift %v m > %v", maxDist, parityDistance)
			}
			if maxAng > parityAngle {
				t.Errorf("segment heading/rotation drift %v rad > %v", maxAng, parityAngle)
			}

			stream := func(k trrs.Kernel) []Estimate {
				es, err := StreamSeries(s, StreamConfig{Core: cfg(k), SpanSeconds: 3, HopSeconds: 0.5})
				if err != nil {
					t.Fatal(err)
				}
				return es
			}
			want, have := stream(trrs.KernelSequential), stream(trrs.KernelVector)
			if len(have) != len(want) {
				t.Fatalf("vector stream emitted %d estimates, sequential %d", len(have), len(want))
			}
			dt := 1 / s.Rate
			var maxRate, maxHead, wantDist, haveDist, wantRot, haveRot float64
			for i := range want {
				w, h := want[i], have[i]
				if h.Moving != w.Moving || h.Kind != w.Kind || h.Degraded != w.Degraded {
					t.Fatalf("slot %d: vector %+v, sequential %+v", i, h, w)
				}
				maxRate = math.Max(maxRate, math.Max(drift(h.Speed, w.Speed), drift(h.AngVel, w.AngVel)))
				if w.Kind == MotionTranslate {
					maxHead = math.Max(maxHead, drift(geom.AngleDiff(h.HeadingBody, w.HeadingBody), 0))
				}
				wantDist += w.Speed * dt
				haveDist += h.Speed * dt
				wantRot += w.AngVel * dt
				haveRot += h.AngVel * dt
			}
			t.Logf("stream: %d slots, max rate drift %.2e, max heading drift %.2e rad, distance %.4f vs %.4f m, rotation %.4f vs %.4f rad",
				len(want), maxRate, maxHead, haveDist, wantDist, haveRot, wantRot)
			if maxRate > paritySpeed {
				t.Errorf("per-slot speed/angular-rate drift %v > %v", maxRate, paritySpeed)
			}
			if maxHead > parityAngle {
				t.Errorf("per-slot heading drift %v rad > %v", maxHead, parityAngle)
			}
			if d := drift(haveDist, wantDist); d > parityDistance {
				t.Errorf("streamed distance drift %v m > %v", d, parityDistance)
			}
			if d := drift(haveRot, wantRot); d > parityAngle {
				t.Errorf("streamed rotation drift %v rad > %v", d, parityAngle)
			}
		})
	}
}
