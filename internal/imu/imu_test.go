package imu

import (
	"math"
	"testing"

	"rim/internal/geom"
	"rim/internal/traj"
)

func TestSimulateShapes(t *testing.T) {
	tr := traj.Line(100, geom.Vec2{}, 0, 0, 1.0, 0.5)
	r := Simulate(tr, DefaultConfig(1))
	if len(r) != len(tr.Samples) {
		t.Fatalf("readings = %d, want %d", len(r), len(tr.Samples))
	}
	if len(Simulate(&traj.Trajectory{Rate: 100}, DefaultConfig(1))) != 0 {
		t.Error("empty trajectory must produce no readings")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	tr := traj.Line(100, geom.Vec2{}, 0, 0, 0.5, 0.5)
	a := Simulate(tr, DefaultConfig(7))
	b := Simulate(tr, DefaultConfig(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce identical readings")
		}
	}
}

func TestGyroIntegrationTracksRotation(t *testing.T) {
	b := traj.NewBuilder(100, geom.Pose{})
	b.RotateInPlace(geom.Rad(90), geom.Rad(90))
	tr := b.Build()
	r := Simulate(tr, DefaultConfig(2))
	angles := IntegrateGyro(r, tr.Rate)
	final := geom.Deg(angles[len(angles)-1])
	// Gyroscope rotation tracking is good short-term: within a few degrees
	// over one second (the paper's Fig. 13 baseline).
	if math.Abs(final-90) > 5 {
		t.Errorf("gyro-integrated angle = %v deg, want ~90", final)
	}
}

func TestGyroDriftsLongTerm(t *testing.T) {
	// A long static period: integrated gyro angle must wander away from
	// zero (bias random walk) — the drift RIM does not suffer from.
	b := traj.NewBuilder(100, geom.Pose{})
	b.Pause(120)
	tr := b.Build()
	cfg := DefaultConfig(3)
	cfg.GyroBiasWalk = 2e-4 // accelerate the walk so the test stays short
	r := Simulate(tr, cfg)
	angles := IntegrateGyro(r, tr.Rate)
	if math.Abs(geom.Deg(angles[len(angles)-1])) < 1 {
		t.Errorf("gyro did not drift over 2 minutes: %v deg", geom.Deg(angles[len(angles)-1]))
	}
}

func TestAccelDistanceDiverges(t *testing.T) {
	// The paper: "an accelerometer is hardly capable of measuring moving
	// distance". A static minute of simulated readings must accumulate
	// meters of phantom distance through double integration of bias+noise.
	b := traj.NewBuilder(100, geom.Pose{})
	b.Pause(60)
	tr := b.Build()
	dt := 1 / tr.Rate
	var v, d float64
	for _, r := range Simulate(tr, DefaultConfig(4)) {
		v += r.Accel.X * dt
		d += math.Abs(v) * dt
	}
	if d < 1 {
		t.Errorf("accelerometer distance after 60 s static = %v m, expected phantom meters", d)
	}
}

func TestMagnetometerDistorted(t *testing.T) {
	// Move through the floor: the magnetometer heading error must exceed
	// several degrees somewhere (soft-iron distortion).
	tr := traj.Line(50, geom.Vec2{}, 0, 0, 20, 1.0)
	r := Simulate(tr, DefaultConfig(5))
	worst := 0.0
	for i, rd := range r {
		err := math.Abs(geom.AngleDiff(rd.MagHeading, tr.Samples[i].Pose.Theta))
		if err > worst {
			worst = err
		}
	}
	if geom.Deg(worst) < 5 {
		t.Errorf("worst magnetometer error = %v deg, want > 5", geom.Deg(worst))
	}
}

func TestMovementIndicatorMissesTransientStop(t *testing.T) {
	// Fig. 7's point: the sensor-energy detector smooths over a short
	// stop, while it clearly separates long static from moving periods.
	rate := 100.0
	b := traj.NewBuilder(rate, geom.Pose{})
	b.Pause(3)
	b.MoveDir(0, 1.5, 0.75)
	b.Pause(0.6) // transient stop
	b.MoveDir(0, 1.5, 0.75)
	b.Pause(3)
	tr := b.Build()
	r := Simulate(tr, DefaultConfig(6))
	ind := MovementIndicator(r, rate, 1.0)

	longStatic := ind[100]
	transient := ind[int(3*rate)+200+30] // middle of the 0.6 s stop
	moving := ind[int(3*rate)+100]
	if longStatic > 0.35 {
		t.Errorf("long-static indicator = %v, want low", longStatic)
	}
	if moving < 0.3 {
		t.Errorf("moving indicator = %v, want high", moving)
	}
	// The transient stop stays indistinguishable from motion.
	if transient < 0.3 {
		t.Errorf("transient-stop indicator = %v; expected the detector to miss the stop", transient)
	}
}

func TestDeadReckonStraight(t *testing.T) {
	rate := 100.0
	tr := traj.Line(rate, geom.Vec2{}, 0, 0, 2.0, 0.5)
	cfg := DefaultConfig(8)
	cfg.GyroNoiseStd = 0 // isolate the integration logic
	cfg.GyroBiasWalk = 0
	r := Simulate(tr, cfg)
	speeds := make([]float64, len(r))
	for i := range speeds {
		speeds[i] = 0.5
	}
	pts := DeadReckon(r, speeds, rate, geom.Pose{})
	final := pts[len(pts)-1]
	if math.Abs(final.X-2.0) > 0.05 || math.Abs(final.Y) > 0.05 {
		t.Errorf("dead-reckoned endpoint = %v, want (2, 0)", final)
	}
	// Mismatched lengths are clamped.
	if got := DeadReckon(r, speeds[:10], rate, geom.Pose{}); len(got) != 10 {
		t.Errorf("clamped length = %d", len(got))
	}
}
