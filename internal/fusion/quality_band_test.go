package fusion

import (
	"math"
	"math/rand"
	"testing"

	"rim/internal/geom"
	"rim/internal/obs/quality"
)

// Chi-square band correctness against the real backends: a golden walk
// through a properly-tuned ESKF must keep its NIS inside the 95% band (the
// quality monitor stays quiet), and a deliberately mis-tuned run — input
// noise far above the configured measurement noise — must trip the alert
// within a bounded number of steps. These are the fusion-level halves of
// the detection story; internal/obs/quality tests the windows on synthetic
// chi-square draws, internal/session tests the daemon wiring.

// eskfWithMonitor builds an ESKF whose innovations feed a fresh monitor.
func eskfWithMonitor(t *testing.T, eng *quality.Engine) (*ESKF, *quality.Monitor) {
	t.Helper()
	mon := eng.Monitor(t.Name())
	cfg := DefaultConfig(7)
	cfg.Backend = BackendESKF
	cfg.StepSeconds = 0.01
	cfg.Innovations = func(ch int, nu, s float64) {
		mon.Innovation(ch, ChannelName(ch), nu, s)
	}
	return NewESKF(geom.Pose{}, cfg), mon
}

// TestESKFGoldenWalkKeepsNISInBand: ZUPT pseudo-measurements whose input
// noise matches the tuned ZUPT stds are exactly what the filter models, so
// the per-channel windowed outside-band fraction must stay near the band's
// nominal 5% leak and the monitor must stay ok.
func TestESKFGoldenWalkKeepsNISInBand(t *testing.T) {
	eng := quality.New(quality.Config{Window: 128})
	f, mon := eskfWithMonitor(t, eng)
	rng := rand.New(rand.NewSource(11))
	dt := 0.01
	sStd := f.cfg.ESKF.ZUPTSpeedStd * dt
	gStd := f.cfg.ESKF.ZUPTGyroStd * dt
	for i := 0; i < 1500; i++ {
		if i%300 < 100 { // walking stretch: clean dead reckoning
			f.Step(Input{DistDelta: 0.005, Quality: 1})
			continue
		}
		// Standing stretch: band-consistent measurement noise.
		f.Step(Input{
			ZUPT:       true,
			DistDelta:  rng.NormFloat64() * sStd,
			ThetaDelta: rng.NormFloat64() * gStd,
		})
	}
	st, frac, n := mon.Summary()
	if st != quality.StateOK {
		t.Fatalf("golden walk verdict = %v (worst frac %.2f), want ok", st, frac)
	}
	if n == 0 {
		t.Fatal("monitor saw no innovations")
	}
	// The windowed leak should hover near 5%; anything approaching the 20%
	// warn threshold would mean the band or the S term is wrong.
	if frac >= 0.2 {
		t.Fatalf("outside-band fraction %.2f on a consistent filter", frac)
	}
}

// TestESKFMistunedTripsAlertWithinBoundedSteps: ZUPT input noise 10x the
// tuned measurement noise makes NIS ~100x its expectation. The alert must
// fire, and within a bounded number of updates (MinSamples of an all-
// outside window, with slack).
func TestESKFMistunedTripsAlertWithinBoundedSteps(t *testing.T) {
	alertAt := -1
	step := 0
	eng := quality.New(quality.Config{
		Window: 32,
		OnTransition: func(entity string, from, to quality.State, channel string, frac float64) {
			if to == quality.StateAlert && alertAt < 0 {
				alertAt = step
			}
		},
	})
	f, mon := eskfWithMonitor(t, eng)
	rng := rand.New(rand.NewSource(12))
	dt := 0.01
	noise := 10 * f.cfg.ESKF.ZUPTSpeedStd * dt
	for step = 1; step <= 128; step++ {
		f.Step(Input{ZUPT: true, DistDelta: rng.NormFloat64() * noise})
		if alertAt >= 0 {
			break
		}
	}
	if alertAt < 0 {
		st, frac, _ := mon.Summary()
		t.Fatalf("mis-tuned ESKF never alerted (state %v, frac %.2f)", st, frac)
	}
	if alertAt > 64 {
		t.Fatalf("alert after %d steps, want bounded by 64", alertAt)
	}
}

// nees2 computes the position NEES e^T P^-1 e over the 2x2 position block.
func nees2(est, truth geom.Vec2, p [eskfDim][eskfDim]float64) float64 {
	ex, ey := est.X-truth.X, est.Y-truth.Y
	a, b, c, d := p[eX][eX], p[eX][eY], p[eY][eX], p[eY][eY]
	det := a*d - b*c
	if det <= 0 {
		return -1
	}
	return (ex*(d*ex-b*ey) + ey*(-c*ex+a*ey)) / det
}

// TestESKFNEESBandSeparatesHonestFromDishonest: when the covariance is
// honest the position NEES eᵀP⁻¹e is chi-square(2) distributed. On a clean
// walk the position error is ~zero, so the last 32 samples stay inside the
// 95% band bound (the consistency monitors' warn level is 20% outside);
// feeding unmodeled distance noise while the truth walks clean makes the
// real error far exceed what the covariance admits, and at least half of
// them (the alert level) leave the band.
func TestESKFNEESBandSeparatesHonestFromDishonest(t *testing.T) {
	const window = 32
	bound := quality.ChiSquareUpper(2)
	// outsideFrac walks an ESKF 200 steps along x at 5 mm a step plus the
	// given input noise, and returns the fraction of the last window NEES
	// samples above the bound.
	outsideFrac := func(seed int64, noise func() float64) float64 {
		t.Helper()
		cfg := DefaultConfig(seed)
		cfg.Backend = BackendESKF
		cfg.StepSeconds = 0.01
		f := NewESKF(geom.Pose{}, cfg)
		var outside []bool
		truth := geom.Vec2{}
		for i := 0; i < 200; i++ {
			est := f.Step(Input{DistDelta: 0.005 + noise(), Quality: 1})
			truth.X += 0.005 // heading 0 walk
			if v := nees2(est.Pos, truth, f.Covariance()); v >= 0 {
				outside = append(outside, v > bound)
			}
		}
		if len(outside) < window {
			t.Fatalf("only %d NEES samples", len(outside))
		}
		n := 0
		for _, o := range outside[len(outside)-window:] {
			if o {
				n++
			}
		}
		return float64(n) / window
	}
	if frac := outsideFrac(7, func() float64 { return 0 }); frac >= 0.2 {
		t.Fatalf("clean-walk NEES outside-band fraction %.2f, want < 0.2", frac)
	}
	rng := rand.New(rand.NewSource(13))
	if frac := outsideFrac(8, func() float64 { return rng.NormFloat64() * 0.02 }); frac < 0.5 {
		t.Fatalf("dishonest-covariance NEES outside-band fraction %.2f, want ≥ 0.5", frac)
	}
}

// TestFilterReportsPFStats: the particle filter must report a sane
// (essFrac, entropyFrac) pair every step through Config.PFStats.
func TestFilterReportsPFStats(t *testing.T) {
	var calls int
	cfg := DefaultConfig(9)
	cfg.NumParticles = 200
	cfg.PFStats = func(essFrac, entropyFrac float64) {
		calls++
		if essFrac <= 0 || essFrac > 1+1e-9 {
			t.Fatalf("essFrac = %v out of (0,1]", essFrac)
		}
		if entropyFrac < 0 || entropyFrac > 1+1e-9 {
			t.Fatalf("entropyFrac = %v out of [0,1]", entropyFrac)
		}
	}
	f := NewFilter(nil, geom.Pose{}, cfg)
	for i := 0; i < 50; i++ {
		f.Step(Input{DistDelta: 0.01, Quality: 0.8})
	}
	if calls != 50 {
		t.Fatalf("PFStats called %d times, want 50", calls)
	}
}

// TestESKFInnovationHookCoversAllChannels: every measurement family the
// ESKF applies must surface on its own named channel with positive
// innovation variance.
func TestESKFInnovationHookCoversAllChannels(t *testing.T) {
	seen := map[string]bool{}
	cfg := DefaultConfig(10)
	cfg.Backend = BackendESKF
	cfg.StepSeconds = 0.01
	cfg.Innovations = func(ch int, nu, s float64) {
		if s <= 0 {
			t.Fatalf("channel %d innovation variance %v", ch, s)
		}
		if math.IsNaN(nu) {
			t.Fatalf("channel %d innovation NaN", ch)
		}
		seen[ChannelName(ch)] = true
	}
	f := NewESKF(geom.Pose{}, cfg)
	for i := 0; i < 20; i++ {
		f.Step(Input{ZUPT: true, DistDelta: 0.0001})
		f.Step(Input{DistDelta: 0.01, Quality: 1, HasMag: true, MagHeading: 0.1})
	}
	for _, want := range []string{"zupt_speed", "zupt_gyro", "slip", "mag"} {
		if !seen[want] {
			t.Fatalf("channel %q never reported (saw %v)", want, seen)
		}
	}
}
