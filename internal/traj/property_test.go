package traj

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rim/internal/geom"
)

// Property: trajectory timestamps are uniform at 1/rate and strictly
// increasing for any composition of builder operations.
func TestBuilderUniformTimeProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := 50.0
		b := NewBuilder(rate, geom.Pose{})
		ops := int(opsRaw%6) + 1
		for i := 0; i < ops; i++ {
			switch rng.Intn(4) {
			case 0:
				b.Pause(0.1 + rng.Float64()*0.3)
			case 1:
				b.MoveDir(rng.Float64()*6, 0.1+rng.Float64()*0.5, 0.2+rng.Float64())
			case 2:
				b.RotateInPlace((rng.Float64()-0.5)*3, 0.5+rng.Float64())
			case 3:
				b.MoveBody(rng.Float64()*6, 0.1+rng.Float64()*0.3, 0.2+rng.Float64())
			}
		}
		tr := b.Build()
		dt := 1 / rate
		for i, s := range tr.Samples {
			if math.Abs(s.T-float64(i)*dt) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: per-sample displacement never exceeds speed·dt (+ float slack),
// so generated motions are physically consistent with their speeds.
func TestBuilderDisplacementBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := 100.0
		speed := 0.2 + rng.Float64()
		b := NewBuilder(rate, geom.Pose{})
		b.MoveDir(rng.Float64()*6, 0.5, speed)
		b.Pause(0.1)
		b.MoveDir(rng.Float64()*6, 0.3, speed)
		tr := b.Build()
		maxStep := speed/rate + 1e-9
		for i := 1; i < len(tr.Samples); i++ {
			d := tr.Samples[i].Pose.Pos.Dist(tr.Samples[i-1].Pose.Pos)
			if d > maxStep {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: TotalDistance equals the prefix distance at the last sample and
// DistanceUpTo is monotone non-decreasing.
func TestDistanceConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := Square(50, geom.Vec2{X: rng.Float64()}, 0.2+rng.Float64()*0.5, 0.3+rng.Float64()*0.5)
		total := tr.TotalDistance()
		if math.Abs(tr.DistanceUpTo(len(tr.Samples)-1)-total) > 1e-9 {
			return false
		}
		prev := 0.0
		for i := 0; i < len(tr.Samples); i += 7 {
			d := tr.DistanceUpTo(i)
			if d < prev-1e-12 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every letter A-Z has a stroke definition, and its trajectory
// stays within its padded glyph box and covers at least the glyph height in
// path length.
func TestLetterBoundsProperty(t *testing.T) {
	for r := 'A'; r <= 'Z'; r++ {
		tr, err := Letter(60, r, geom.Vec2{X: 1, Y: 2}, 0.3, 0.25)
		if err != nil {
			t.Fatalf("letter %q: %v", r, err)
		}
		if tr.TotalDistance() < 0.3 {
			t.Errorf("letter %q path too short: %v", r, tr.TotalDistance())
		}
		for _, s := range tr.Samples {
			p := s.Pose.Pos
			if p.X < 1-0.1 || p.X > 1+0.4 || p.Y < 2-0.1 || p.Y > 2+0.45 {
				t.Fatalf("letter %q escaped its box at %v", r, p)
			}
		}
	}
}

// Property: gesture sessions produce non-overlapping spans that each cover
// one out-and-back (net displacement ≈ 0).
func TestGestureSessionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kinds := AllGestures()
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		reach := 0.15 + rng.Float64()*0.2
		tr, spans := GestureSession(60, kinds, geom.Vec2{}, reach, 0.3+rng.Float64()*0.3)
		for _, sp := range spans {
			start := tr.Samples[sp[0]].Pose.Pos
			end := tr.Samples[sp[1]-1].Pose.Pos
			if start.Dist(end) > 0.03 {
				return false
			}
			// The span must actually reach out by ~reach.
			far := 0.0
			for k := sp[0]; k < sp[1]; k++ {
				if d := tr.Samples[k].Pose.Pos.Dist(start); d > far {
					far = d
				}
			}
			if far < reach*0.8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
