// Package imu simulates the MEMS inertial sensors RIM is compared against
// (a Bosch BNO055-class unit): an accelerometer with bias and vibration
// noise, a gyroscope with white noise plus random-walk bias drift, and a
// magnetometer with location-dependent soft-iron distortion. It also
// provides the classical dead-reckoning baselines built on them — exactly
// the erroneous estimates the paper's Figs. 7, 13 and 21 contrast RIM with.
package imu

import (
	"math"
	"math/rand"

	"rim/internal/geom"
	"rim/internal/sigproc"
	"rim/internal/traj"
)

// Config holds the sensor error model.
type Config struct {
	// AccelNoiseStd is white accelerometer noise, m/s² (vibration makes
	// this large on carts; default 0.12).
	AccelNoiseStd float64
	// AccelBiasMax bounds the constant accelerometer bias per axis, m/s²
	// (default 0.08 — typical uncalibrated MEMS).
	AccelBiasMax float64
	// GyroNoiseStd is white gyroscope noise, rad/s (default 0.004).
	GyroNoiseStd float64
	// GyroBiasWalk is the random-walk step of the gyro bias per sample,
	// rad/s (default 2e-5; integrates into the classic heading drift).
	GyroBiasWalk float64
	// VibrationAccel is motion-induced vibration noise, m/s² per m/s of
	// speed (default 0.5): rolling carts and hands shake, which is what
	// energy-based movement detectors actually key on.
	VibrationAccel float64
	// MagNoiseStd is magnetometer heading noise, rad (default 0.03).
	MagNoiseStd float64
	// MagDistortion is the amplitude of the location-dependent heading
	// distortion, rad (default 0.35 — indoor steel warps the field by
	// tens of degrees, §1 of the paper).
	MagDistortion float64
	// Seed drives all sensor randomness.
	Seed int64
}

// DefaultConfig returns a BNO055-like error model.
func DefaultConfig(seed int64) Config {
	return Config{
		AccelNoiseStd:  0.12,
		AccelBiasMax:   0.08,
		VibrationAccel: 0.5,
		GyroNoiseStd:   0.004,
		GyroBiasWalk:   2e-5,
		MagNoiseStd:    0.03,
		MagDistortion:  0.35,
		Seed:           seed,
	}
}

// Reading is one IMU sample.
type Reading struct {
	T float64
	// Accel is the body-frame linear acceleration (gravity-compensated),
	// m/s².
	Accel geom.Vec2
	// Gyro is the z angular velocity, rad/s.
	Gyro float64
	// MagHeading is the magnetometer-derived absolute device orientation,
	// rad.
	MagHeading float64
}

// Simulate produces IMU readings along a ground-truth trajectory at the
// trajectory's sample rate.
func Simulate(tr *traj.Trajectory, cfg Config) []Reading {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(tr.Samples)
	out := make([]Reading, n)
	if n == 0 {
		return out
	}
	dt := 1 / tr.Rate
	biasX := (rng.Float64()*2 - 1) * cfg.AccelBiasMax
	biasY := (rng.Float64()*2 - 1) * cfg.AccelBiasMax
	gyroBias := 0.0
	// Random but fixed spatial phase for the magnetic distortion field.
	magPhase := rng.Float64() * 2 * math.Pi
	for i := 0; i < n; i++ {
		s := tr.Samples[i]
		// True world-frame acceleration by central difference of velocity.
		var accW geom.Vec2
		switch {
		case i == 0 && n > 1:
			accW = tr.Samples[1].Vel.Sub(tr.Samples[0].Vel).Scale(1 / dt)
		case i == n-1:
			accW = tr.Samples[i].Vel.Sub(tr.Samples[i-1].Vel).Scale(1 / dt)
		default:
			accW = tr.Samples[i+1].Vel.Sub(tr.Samples[i-1].Vel).Scale(1 / (2 * dt))
		}
		accB := accW.Rotate(-s.Pose.Theta)
		vib := cfg.VibrationAccel * s.Vel.Norm()
		accB.X += biasX + rng.NormFloat64()*(cfg.AccelNoiseStd+vib)
		accB.Y += biasY + rng.NormFloat64()*(cfg.AccelNoiseStd+vib)

		gyroBias += rng.NormFloat64() * cfg.GyroBiasWalk
		gyro := s.AngVel + gyroBias + rng.NormFloat64()*cfg.GyroNoiseStd

		// Magnetometer: true orientation plus a smooth location-dependent
		// distortion field and noise.
		p := s.Pose.Pos
		dist := cfg.MagDistortion * math.Sin(0.4*p.X+0.7*p.Y+magPhase)
		mag := geom.NormalizeAngle(s.Pose.Theta + dist + rng.NormFloat64()*cfg.MagNoiseStd)

		out[i] = Reading{T: s.T, Accel: accB, Gyro: gyro, MagHeading: mag}
	}
	return out
}

// IntegrateGyro returns the cumulative rotation angle (rad) from gyroscope
// readings — the baseline for the Fig. 13 rotation comparison. It inherits
// the bias-drift error of the gyro.
func IntegrateGyro(readings []Reading, rate float64) []float64 {
	out := make([]float64, len(readings))
	dt := 1 / rate
	var angle float64
	for i, r := range readings {
		angle += r.Gyro * dt
		out[i] = angle
	}
	return out
}

// MovementIndicator returns the normalized moving-window standard deviation
// of the combined accel/gyro energy — the conventional sensor-based
// movement detector of Fig. 7. windowSeconds is the detection window; MEMS
// noise forces it to be long, which is exactly why transient stops are
// missed.
func MovementIndicator(readings []Reading, rate, windowSeconds float64) []float64 {
	n := len(readings)
	energy := make([]float64, n)
	for i, r := range readings {
		energy[i] = math.Hypot(r.Accel.X, r.Accel.Y) + 2*math.Abs(r.Gyro)
	}
	// Winsorize: single-sample jerk spikes at starts/stops would otherwise
	// dominate the windowed deviation of every window they touch.
	cap := sigproc.Percentile(energy, 95)
	for i := range energy {
		if energy[i] > cap {
			energy[i] = cap
		}
	}
	half := int(windowSeconds * rate / 2)
	if half < 1 {
		half = 1
	}
	out := make([]float64, n)
	for i := range energy {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		out[i] = sigproc.Std(energy[lo : hi+1])
	}
	// Normalize to [0, 1] for threshold comparability. Use a high
	// percentile rather than the max so the start/stop acceleration
	// spikes do not crush the scale, and clamp the remainder.
	ref := sigproc.Percentile(out, 90)
	if ref > 0 {
		for i := range out {
			out[i] /= ref
			if out[i] > 1 {
				out[i] = 1
			}
		}
	}
	return out
}

// DeadReckon integrates gyro heading plus an external per-sample speed
// (e.g. from RIM) into a trajectory — the fusion of §6.3.3. initial is the
// starting pose; speeds must have the same length as readings.
func DeadReckon(readings []Reading, speeds []float64, rate float64, initial geom.Pose) []geom.Vec2 {
	n := len(readings)
	if len(speeds) < n {
		n = len(speeds)
	}
	out := make([]geom.Vec2, n)
	pose := initial
	dt := 1 / rate
	for i := 0; i < n; i++ {
		pose.Theta = geom.NormalizeAngle(pose.Theta + readings[i].Gyro*dt)
		pose.Pos = pose.Pos.Add(geom.FromPolar(speeds[i]*dt, pose.Theta))
		out[i] = pose.Pos
	}
	return out
}
