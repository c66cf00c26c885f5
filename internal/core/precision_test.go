package core

import (
	"math"
	"testing"

	"rim/internal/array"
	"rim/internal/geom"
	"rim/internal/traj"
	"rim/internal/trrs"
)

// TestFloat32ErrorBudget is the end-to-end error budget of the float32
// plane mode: on a golden 1 m walk the float32 pipeline must reproduce
// the float64 segmentation exactly and land distance and heading within
// the documented budget (DESIGN.md, "TRRS kernel" — precision error
// budget). The budget is deliberately much tighter than the pipeline's
// physical accuracy (±0.12 m against ground truth), so float32 costs a
// negligible slice of the error allowance.
func TestFloat32ErrorBudget(t *testing.T) {
	rate := 100.0
	arr := array.NewLinear3(spacing)
	for _, walk := range []struct {
		name string
		dir  float64
		dist float64
		seed int64
	}{
		{name: "east", dir: 0, dist: 1.0, seed: 42},
		{name: "west", dir: math.Pi, dist: 0.8, seed: 7},
	} {
		t.Run(walk.name, func(t *testing.T) {
			b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
			b.Pause(0.5)
			b.MoveDir(walk.dir, walk.dist, 0.4)
			b.Pause(0.5)
			s := buildSeries(t, b.Build(), arr, walk.seed)

			ref, err := ProcessSeries(s, testConfigV20(arr))
			if err != nil {
				t.Fatal(err)
			}
			cfg32 := testConfigV20(arr)
			cfg32.Precision = trrs.PrecisionFloat32
			got, err := ProcessSeries(s, cfg32)
			if err != nil {
				t.Fatal(err)
			}

			if len(got.Segments) != len(ref.Segments) {
				t.Fatalf("float32 segments = %d, float64 = %d", len(got.Segments), len(ref.Segments))
			}
			for i := range ref.Segments {
				r, g := ref.Segments[i], got.Segments[i]
				if g.Kind != r.Kind {
					t.Fatalf("segment %d kind = %v, float64 %v", i, g.Kind, r.Kind)
				}
				// Budget: ≤ 2 mm distance drift and ≤ 0.5° heading drift per
				// segment (measured drift is ~0; the bound leaves headroom for
				// DP tie-breaks flipping on ~1e-5-relative matrix deltas).
				if d := math.Abs(g.Distance - r.Distance); d > 2e-3 {
					t.Errorf("segment %d distance drift = %v m, budget 2e-3", i, d)
				}
				if d := math.Abs(geom.AngleDiff(g.HeadingBody, r.HeadingBody)); d > geom.Rad(0.5) {
					t.Errorf("segment %d heading drift = %v deg, budget 0.5", i, geom.Deg(d))
				}
				t.Logf("segment %d: distance drift %.2e m, heading drift %.3f deg",
					i, math.Abs(g.Distance-r.Distance),
					geom.Deg(math.Abs(geom.AngleDiff(g.HeadingBody, r.HeadingBody))))
			}
			if d := math.Abs(got.Distance - ref.Distance); d > 2e-3 {
				t.Errorf("total distance drift = %v m, budget 2e-3", d)
			}
		})
	}
}

// TestVectorKernelEndToEnd runs the golden walk with the vector kernel
// selected through core.Config: the 1e-12-relative kernel must leave
// segmentation, distance and heading indistinguishable from the
// sequential reference at pipeline scale.
func TestVectorKernelEndToEnd(t *testing.T) {
	rate := 100.0
	arr := array.NewLinear3(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.5)
	b.MoveDir(0, 1.0, 0.4)
	b.Pause(0.5)
	s := buildSeries(t, b.Build(), arr, 42)

	cfgSeq := testConfigV20(arr)
	cfgSeq.Kernel = trrs.KernelSequential
	ref, err := ProcessSeries(s, cfgSeq)
	if err != nil {
		t.Fatal(err)
	}
	cfgVec := testConfigV20(arr)
	cfgVec.Kernel = trrs.KernelVector
	got, err := ProcessSeries(s, cfgVec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != len(ref.Segments) {
		t.Fatalf("vector segments = %d, sequential = %d", len(got.Segments), len(ref.Segments))
	}
	for i := range ref.Segments {
		r, g := ref.Segments[i], got.Segments[i]
		if g.Kind != r.Kind {
			t.Fatalf("segment %d kind = %v, sequential %v", i, g.Kind, r.Kind)
		}
		if d := math.Abs(g.Distance - r.Distance); d > 1e-6 {
			t.Errorf("segment %d distance drift = %v m, want ≤ 1e-6", i, d)
		}
		if d := math.Abs(geom.AngleDiff(g.HeadingBody, r.HeadingBody)); d > 1e-9 {
			t.Errorf("segment %d heading drift = %v rad, want ≤ 1e-9", i, d)
		}
	}
}

// TestFloat32Streaming pushes the golden walk through a float32
// streaming session and checks the finalized estimates against the
// float64 stream: identical emission schedule, same per-slot motion
// classification on all but a vanishing fraction of boundary slots.
func TestFloat32Streaming(t *testing.T) {
	rate := 100.0
	arr := array.NewLinear3(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.5)
	b.MoveDir(0, 1.0, 0.4)
	b.Pause(0.5)
	s := buildSeries(t, b.Build(), arr, 42)

	mk := func(prec trrs.Precision) StreamConfig {
		cfg := StreamConfig{Core: testConfigV20(arr)}
		cfg.Core.Precision = prec
		return cfg
	}
	ref, err := StreamSeries(s, mk(trrs.PrecisionFloat64))
	if err != nil {
		t.Fatal(err)
	}
	got, err := StreamSeries(s, mk(trrs.PrecisionFloat32))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("float32 stream emitted %d estimates, float64 %d", len(got), len(ref))
	}
	mismatched := 0
	for i := range ref {
		if got[i].Moving != ref[i].Moving || got[i].Kind != ref[i].Kind {
			mismatched++
		}
	}
	if frac := float64(mismatched) / float64(len(ref)); frac > 0.02 {
		t.Errorf("per-slot classification drift on %d/%d slots (%.1f%%), budget 2%%",
			mismatched, len(ref), 100*frac)
	}
}
