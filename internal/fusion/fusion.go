// Package fusion integrates RIM with inertial sensors and a floorplan, as
// in the paper's §6.3.3 tracking case study: RIM supplies drift-free speed,
// the gyroscope supplies heading changes, and a map-constrained particle
// filter corrects heading drift by discarding particles that walk through
// walls (Fig. 21).
package fusion

import (
	"math"
	"math/rand"

	"rim/internal/floorplan"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/obs/trace"
)

// Input is one fused dead-reckoning step: a travelled distance increment
// and a heading-change increment (from the gyro or from RIM's rotation
// estimate).
type Input struct {
	DistDelta  float64 // meters moved this step
	ThetaDelta float64 // heading change this step, radians
	// Quality weights the step's reliability in (0,1]: degraded RIM slots
	// (packet-loss bursts, dead antennas, low alignment confidence) pass
	// their confidence here so the filter widens its diffusion instead of
	// trusting the distance. <= 0 means unknown and is treated as 1.
	Quality float64
	// ZUPT marks the step as inside a confirmed zero-velocity interval
	// (core.ZUPTInterval): the device is known static, so the raw distance
	// and gyro increments measure pure sensor bias. The ESKF backend turns
	// the step into zero-velocity pseudo-measurements; the particle filter
	// ignores the flag (map constraints already absorb static drift).
	ZUPT bool
	// MagHeading is an absolute world-frame heading observation in radians
	// (e.g. a soft-iron-distorted magnetometer), valid only when HasMag is
	// set. Consumed by the ESKF backend as a weak absolute-heading update;
	// ignored by the particle filter, whose floorplan provides the absolute
	// reference instead.
	MagHeading float64
	HasMag     bool
}

// Measurement channels of the ESKF backend, identifying which
// pseudo-measurement produced an innovation reported through
// Config.Innovations. The ordinals are stable: consistency monitors key
// their per-channel acceptance windows on them.
const (
	// ChanZUPTSpeed is the zero-velocity speed pseudo-measurement.
	ChanZUPTSpeed = iota
	// ChanZUPTGyro is the zero-rotation gyro pseudo-measurement.
	ChanZUPTGyro
	// ChanSlip is the no-lateral-slip pseudo-measurement. Its innovation
	// is identically zero by construction (see ESKF.Step), so consumers
	// track it separately and must not let it dilute the other channels.
	ChanSlip
	// ChanMag is the absolute magnetic-heading update.
	ChanMag

	// NumChannels bounds the channel ordinals.
	NumChannels
)

// ChannelName returns the stable metric-label name of a measurement
// channel.
func ChannelName(ch int) string {
	switch ch {
	case ChanZUPTSpeed:
		return "zupt_speed"
	case ChanZUPTGyro:
		return "zupt_gyro"
	case ChanSlip:
		return "slip"
	case ChanMag:
		return "mag"
	}
	return "unknown"
}

// Config parameterizes the particle filter.
type Config struct {
	// NumParticles (default 400).
	NumParticles int
	// PosStd is per-step position diffusion in meters (default 0.01).
	PosStd float64
	// ThetaStd is per-step heading diffusion in radians (default 0.01).
	ThetaStd float64
	// InitPosStd / InitThetaStd spread the initial particle cloud.
	InitPosStd   float64
	InitThetaStd float64
	// Seed drives the filter randomness.
	Seed int64
	// Backend selects the estimation backend New constructs: the
	// map-constrained particle filter (the zero value, BackendParticle) or
	// the error-state Kalman filter (BackendESKF). See backend.go and
	// DESIGN.md "Fusion backends & ZUPT" for the trade-off.
	Backend BackendKind
	// StepSeconds is the wall-clock duration of one Input step (default
	// 0.01 s). The ESKF needs it to convert distance/heading increments
	// into rates for its bias states; the particle filter does not use it.
	StepSeconds float64
	// ESKF tunes the error-state Kalman backend; zero fields take the
	// defaults documented on ESKFParams. Ignored by the particle filter.
	ESKF ESKFParams
	// Obs, when non-nil, receives the filter's run metrics: steps and
	// resampling/revival events, the distribution of input quality, and a
	// live-particle gauge. Fully optional; a nil registry costs nothing.
	Obs *obs.Registry
	// Trace, when non-nil, receives one trace.KindFusionStep event per Step
	// (A = input quality in permille, B = particles alive afterwards) so
	// fused runs carry the filter's decisions in their causal trace.
	Trace *trace.Recorder
	// Innovations, when non-nil, receives every scalar measurement update
	// the ESKF backend applies: the channel ordinal (Chan* constants), the
	// innovation nu and the innovation variance S = h·P·hᵀ + r. nu²/S is
	// the per-update Normalized Innovation Squared a consistency monitor
	// (internal/obs/quality) checks against its chi-square band. The
	// particle filter has no innovations and ignores the hook. Called
	// synchronously from Step — keep it cheap and non-blocking.
	Innovations func(channel int, nu, s float64)
	// PFStats, when non-nil, receives the particle filter's per-step
	// health statistics: the effective sample size as a fraction of the
	// cloud (1 = uniform weights, →1/N = degenerate) and the weight
	// entropy as a fraction of the uniform-cloud maximum ln N. The ESKF
	// backend has no particle cloud and ignores the hook. Called
	// synchronously from Step.
	PFStats func(essFrac, entropyFrac float64)
}

// DefaultConfig returns the settings used for Fig. 21.
func DefaultConfig(seed int64) Config {
	return Config{
		NumParticles: 400,
		PosStd:       0.01,
		ThetaStd:     0.01,
		InitPosStd:   0.1,
		InitThetaStd: 0.05,
		Seed:         seed,
	}
}

// resampleFrac triggers systematic resampling when the effective sample
// size falls below this fraction of the cloud.
const resampleFrac = 0.5

type particle struct {
	pos    geom.Vec2
	theta  float64
	weight float64
}

// Filter is the map-constrained particle filter.
type Filter struct {
	cfg   Config
	plan  *floorplan.Plan
	rng   *rand.Rand
	parts []particle

	// Observability handles (nil = unobserved).
	steps, resamples, revivals *obs.Counter
	qualityH                   *obs.Histogram
	aliveGauge                 *obs.Gauge
	trc                        *trace.Recorder
}

// NewFilter initializes the particle cloud around the known initial pose
// (the paper's tracking demo is given the initial location and direction).
func NewFilter(plan *floorplan.Plan, initial geom.Pose, cfg Config) *Filter {
	if cfg.NumParticles <= 0 {
		cfg.NumParticles = 400
	}
	f := &Filter{cfg: cfg, plan: plan, rng: rand.New(rand.NewSource(cfg.Seed)), trc: cfg.Trace}
	if cfg.Obs != nil {
		f.steps = cfg.Obs.Counter("rim_fusion_steps_total",
			"particle-filter dead-reckoning steps processed")
		f.resamples = cfg.Obs.Counter("rim_fusion_resamples_total",
			"systematic resampling passes triggered by weight degeneracy")
		f.revivals = cfg.Obs.Counter("rim_fusion_revivals_total",
			"cloud revivals after every particle hit a wall")
		f.qualityH = cfg.Obs.Histogram("rim_fusion_quality_ratio",
			"per-step RIM input quality weight in (0,1]",
			[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 1})
		f.aliveGauge = cfg.Obs.Gauge("rim_fusion_particles_alive",
			"particles with non-zero weight after the latest step")
	}
	w := 1 / float64(cfg.NumParticles)
	for i := 0; i < cfg.NumParticles; i++ {
		f.parts = append(f.parts, particle{
			pos: initial.Pos.Add(geom.Vec2{
				X: f.rng.NormFloat64() * cfg.InitPosStd,
				Y: f.rng.NormFloat64() * cfg.InitPosStd,
			}),
			theta:  initial.Theta + f.rng.NormFloat64()*cfg.InitThetaStd,
			weight: w,
		})
	}
	return f
}

// Step advances every particle by the dead-reckoning input plus diffusion,
// kills particles that cross a wall (weight 0), renormalizes, and resamples
// when the weights degenerate. It returns the weighted mean pose estimate.
func (f *Filter) Step(in Input) geom.Pose {
	// Degraded inputs widen the diffusion: a slot measured through packet
	// loss or on a reduced antenna set carries the same dead-reckoning
	// increment but much less certainty, so the cloud must spread rather
	// than commit.
	q := in.Quality
	if q <= 0 || q > 1 {
		q = 1
	}
	f.steps.Inc()
	f.qualityH.Observe(q)
	spread := 1 + 2*(1-q)
	var totalW float64
	for i := range f.parts {
		p := &f.parts[i]
		if p.weight == 0 {
			continue
		}
		p.theta = geom.NormalizeAngle(p.theta + in.ThetaDelta + f.rng.NormFloat64()*f.cfg.ThetaStd*spread)
		step := in.DistDelta + f.rng.NormFloat64()*f.cfg.PosStd*math.Abs(in.DistDelta)*10*spread
		next := p.pos.Add(geom.FromPolar(step, p.theta))
		if f.plan != nil && f.plan.SegmentHitsWall(p.pos, next) {
			p.weight = 0 // the paper: discard every particle that hits a wall
			continue
		}
		p.pos = next
		totalW += p.weight
	}
	if totalW == 0 {
		// All particles died (e.g. dead-reckoning drove the cloud into a
		// wall): revive by resampling around the surviving positions with
		// broad diffusion.
		f.revivals.Inc()
		f.revive()
	} else {
		inv := 1 / totalW
		for i := range f.parts {
			f.parts[i].weight *= inv
		}
	}
	if f.cfg.PFStats != nil {
		// Report the post-update, pre-resample statistics: degeneracy is
		// the signal; resampling deliberately erases it.
		entFrac := 0.0
		if n := float64(len(f.parts)); n > 1 {
			entFrac = f.weightEntropy() / math.Log(n)
		}
		f.cfg.PFStats(f.effectiveFraction(), entFrac)
	}
	if f.effectiveFraction() < resampleFrac {
		f.resamples.Inc()
		f.resample()
	}
	if f.aliveGauge != nil {
		f.aliveGauge.Set(float64(f.NumAlive()))
	}
	if f.trc != nil {
		// Fusion consumes finalized estimates downstream of the hop loop,
		// so its steps belong to the batch scope (hop 0).
		f.trc.Emit(trace.KindFusionStep, 0, -1, int64(q*1000), int64(f.NumAlive()))
	}
	return f.Estimate()
}

// Estimate returns the weighted mean pose of the cloud.
func (f *Filter) Estimate() geom.Pose {
	var pos geom.Vec2
	var sx, sy, w float64
	for _, p := range f.parts {
		pos = pos.Add(p.pos.Scale(p.weight))
		sx += math.Cos(p.theta) * p.weight
		sy += math.Sin(p.theta) * p.weight
		w += p.weight
	}
	if w == 0 {
		return geom.Pose{}
	}
	return geom.Pose{Pos: pos.Scale(1 / w), Theta: math.Atan2(sy, sx)}
}

// NumAlive returns the number of particles with non-zero weight.
func (f *Filter) NumAlive() int {
	n := 0
	for _, p := range f.parts {
		if p.weight > 0 {
			n++
		}
	}
	return n
}

func (f *Filter) effectiveFraction() float64 {
	var sum2 float64
	for _, p := range f.parts {
		sum2 += p.weight * p.weight
	}
	if sum2 == 0 {
		return 0
	}
	return 1 / sum2 / float64(len(f.parts))
}

// weightEntropy returns the Shannon entropy of the (normalized) particle
// weights in nats: ln N for a uniform cloud, 0 for a fully degenerate one.
func (f *Filter) weightEntropy() float64 {
	var h float64
	for _, p := range f.parts {
		if p.weight > 0 {
			h -= p.weight * math.Log(p.weight)
		}
	}
	return h
}

// resample performs systematic resampling proportional to weights.
func (f *Filter) resample() {
	n := len(f.parts)
	out := make([]particle, 0, n)
	step := 1.0 / float64(n)
	u := f.rng.Float64() * step
	var cum float64
	idx := 0
	for i := 0; i < n; i++ {
		target := u + float64(i)*step
		for idx < n-1 && cum+f.parts[idx].weight < target {
			cum += f.parts[idx].weight
			idx++
		}
		p := f.parts[idx]
		p.weight = step
		out = append(out, p)
	}
	f.parts = out
}

// revive rebuilds a dead cloud around the last known positions.
func (f *Filter) revive() {
	// Find the centroid of the (dead) cloud and respawn with diffusion.
	var c geom.Vec2
	var sx, sy float64
	for _, p := range f.parts {
		c = c.Add(p.pos)
		sx += math.Cos(p.theta)
		sy += math.Sin(p.theta)
	}
	inv := 1 / float64(len(f.parts))
	c = c.Scale(inv)
	theta := math.Atan2(sy, sx)
	w := 1 / float64(len(f.parts))
	for i := range f.parts {
		f.parts[i] = particle{
			pos: c.Add(geom.Vec2{
				X: f.rng.NormFloat64() * 0.3,
				Y: f.rng.NormFloat64() * 0.3,
			}),
			theta:  theta + f.rng.NormFloat64()*0.2,
			weight: w,
		}
	}
}

// TrackAll runs the filter over a full input sequence and returns the pose
// estimate after every step.
func (f *Filter) TrackAll(inputs []Input) []geom.Pose {
	out := make([]geom.Pose, len(inputs))
	for i, in := range inputs {
		out[i] = f.Step(in)
	}
	return out
}
