package rim

import (
	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/faults"
	"rim/internal/floorplan"
	"rim/internal/fusion"
	"rim/internal/geom"
	"rim/internal/imu"
	"rim/internal/rf"
	"rim/internal/traj"
)

// Geometry primitives.
type (
	// Vec2 is a 2D point or displacement in meters.
	Vec2 = geom.Vec2
	// Pose is a rigid 2D pose (position + orientation).
	Pose = geom.Pose
)

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return geom.Deg(rad) }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return geom.Rad(deg) }

// Antenna arrays.
type (
	// Array is a rigid receive antenna arrangement.
	Array = array.Array
	// Pair is an ordered antenna pair.
	Pair = array.Pair
)

// HalfWavelength is the λ/2 element spacing at 5.18 GHz used by the
// paper's prototype arrays.
const HalfWavelength = 0.029

// NewLinear3Array returns the 3-antenna linear array of a single COTS NIC
// at λ/2 spacing.
func NewLinear3Array() *Array { return array.NewLinear3(HalfWavelength) }

// NewHexagonalArray returns the 6-element circular array of Fig. 2 (two
// NICs) at λ/2 spacing.
func NewHexagonalArray() *Array { return array.NewHexagonal(HalfWavelength) }

// NewLShapeArray returns the compact pointer-unit array of the gesture
// application.
func NewLShapeArray() *Array { return array.NewLShape(HalfWavelength) }

// RF environment (simulation substrate).
type (
	// RFConfig describes the radio link (carrier, bandwidth, tones,
	// multipath richness).
	RFConfig = rf.Config
	// Environment synthesizes multipath CFRs for any receiver position.
	Environment = rf.Environment
	// Floorplan is a 2D plan with attenuating walls and pillars.
	Floorplan = floorplan.Plan
	// Office is the paper's Fig. 10 evaluation floorplan with its seven
	// AP locations.
	Office = floorplan.Office
)

// DefaultRFConfig returns the paper's radio parameters (5.18 GHz, 40 MHz,
// 114 tones, 3 tx antennas, rich multipath).
func DefaultRFConfig() RFConfig { return rf.DefaultConfig() }

// FastRFConfig returns a reduced radio model for quick experiments.
func FastRFConfig() RFConfig { return rf.FastConfig() }

// NewOffice builds the evaluation floorplan of Fig. 10.
func NewOffice() *Office { return floorplan.NewOffice() }

// NewEnvironment builds a propagation scene: AP at apPos, scatterers around
// areaCenter, walls from plan (nil for free space).
func NewEnvironment(cfg RFConfig, apPos, areaCenter Vec2, plan *Floorplan) *Environment {
	return rf.NewEnvironment(cfg, apPos, areaCenter, plan)
}

// NewFreeSpaceEnvironment builds a wall-less scene.
func NewFreeSpaceEnvironment(cfg RFConfig, apPos, areaCenter Vec2) *Environment {
	return rf.NewEnvironment(cfg, apPos, areaCenter, nil)
}

// CSI acquisition.
type (
	// ReceiverConfig models receiver impairments (noise, loss, CFO/SFO/
	// STO, PLL phase).
	ReceiverConfig = csi.ReceiverConfig
	// Trace is a raw CSI recording.
	Trace = csi.Trace
	// Series is the preprocessed, analysis-ready CSI stream.
	Series = csi.Series
)

// RealisticReceiver returns impairments typical of commodity hardware.
func RealisticReceiver(seed int64) ReceiverConfig { return csi.RealisticReceiver(seed) }

// Fault injection. A FaultModel attached to ReceiverConfig.Faults layers
// bursty packet loss, dead/flapping RF chains, interference bursts, AGC
// gain steps, and corrupt frames on top of the nominal receiver
// impairments, for robustness testing of the pipeline.
type (
	// FaultModel is the composable fault description.
	FaultModel = faults.Model
	// GilbertElliott is the two-state bursty packet-loss channel.
	GilbertElliott = faults.GilbertElliott
	// FaultDropout is a dead or flapping RF chain.
	FaultDropout = faults.Dropout
	// FaultBurst is a wideband interference window that crushes SNR.
	FaultBurst = faults.Burst
	// FaultAGCStep is an abrupt receive-gain change.
	FaultAGCStep = faults.AGCStep
	// FaultCorruption injects NaN / garbage frames.
	FaultCorruption = faults.Corruption
)

// NewGilbertElliottLoss builds a bursty-loss channel with the given mean
// loss fraction and mean burst length in packets.
func NewGilbertElliottLoss(meanLoss, burstLen float64) *GilbertElliott {
	return faults.NewGilbertElliott(meanLoss, burstLen)
}

// Collect simulates CSI acquisition of a motion.
func Collect(env *Environment, arr *Array, tr *Trajectory, rcfg ReceiverConfig) *Trace {
	return csi.Collect(env, arr, tr, rcfg)
}

// Trajectories.
type (
	// Trajectory is a sampled ground-truth motion.
	Trajectory = traj.Trajectory
	// TrajectoryBuilder composes motion segments.
	TrajectoryBuilder = traj.Builder
)

// NewTrajectory starts building a trajectory at the given pose, sampled at
// rate Hz (use the CSI packet rate).
func NewTrajectory(rate float64, start Pose) *TrajectoryBuilder {
	return traj.NewBuilder(rate, start)
}

// Core pipeline.
type (
	// CoreConfig parameterizes the RIM pipeline.
	CoreConfig = core.Config
	// Result is the pipeline output (per-slot estimates + segments).
	Result = core.Result
	// SegmentResult summarizes one movement segment.
	SegmentResult = core.SegmentResult
	// Estimate is a per-slot motion estimate.
	Estimate = core.Estimate
	// MotionKind classifies motion (none / translate / rotate).
	MotionKind = core.MotionKind
)

// Motion kinds.
const (
	MotionNone      = core.MotionNone
	MotionTranslate = core.MotionTranslate
	MotionRotate    = core.MotionRotate
)

// DefaultCoreConfig returns the paper's operating point for the array.
func DefaultCoreConfig(arr *Array) CoreConfig { return core.DefaultConfig(arr) }

// FastCoreConfig returns the fast operating point for the array: the
// paper's point with W = 0.3 s and V = 16, as the demos use.
func FastCoreConfig(arr *Array) CoreConfig { return core.FastConfig(arr) }

// Process runs the full RIM pipeline on a processed CSI series.
func Process(s *Series, cfg CoreConfig) (*Result, error) {
	return core.ProcessSeries(s, cfg)
}

// Streaming (real-time) front end.
type (
	// Streamer ingests CSI packets one at a time and emits finalized
	// per-slot estimates with bounded latency (the paper's §5 online
	// system).
	Streamer = core.Streamer
	// StreamConfig parameterizes the streamer.
	StreamConfig = core.StreamConfig
	// StreamHealth is the streamer's degradation report: loss rate, dead
	// antennas, fallback mode, failure counters (Streamer.Health).
	StreamHealth = core.Health
)

// ErrStreamAnalysis marks a recoverable analysis failure inside the
// streamer: the affected slots are emitted as degraded placeholders and the
// condition is recorded in StreamHealth.
var ErrStreamAnalysis = core.ErrAnalysis

// NewStreamer builds a streaming pipeline for CSI with the given shape.
func NewStreamer(cfg StreamConfig, rate float64, numAnts, numTx, numSub int) (*Streamer, error) {
	return core.NewStreamer(cfg, rate, numAnts, numTx, numSub)
}

// StreamSeries replays a processed series through a Streamer ("as-if-live").
func StreamSeries(s *Series, cfg StreamConfig) ([]Estimate, error) {
	return core.StreamSeries(s, cfg)
}

// Inertial sensors and fusion.
type (
	// IMUConfig is the MEMS sensor error model.
	IMUConfig = imu.Config
	// IMUReading is one accelerometer/gyroscope/magnetometer sample.
	IMUReading = imu.Reading
	// ParticleFilter is the map-constrained filter of Fig. 21.
	ParticleFilter = fusion.Filter
	// ESKF is the error-state Kalman filter backend with ZUPT
	// pseudo-measurements.
	ESKF = fusion.ESKF
	// FusionBackend is the estimator interface both backends satisfy.
	FusionBackend = fusion.Backend
	// FusionBackendKind selects the backend NewFusionBackend constructs.
	FusionBackendKind = fusion.BackendKind
	// FusionInput is one dead-reckoning step for the filter.
	FusionInput = fusion.Input
	// FusionConfig parameterizes the fusion backends.
	FusionConfig = fusion.Config
	// ZUPTInterval is one confirmed zero-velocity interval from the
	// movement detector.
	ZUPTInterval = core.ZUPTInterval
)

// Fusion backend kinds.
const (
	FusionBackendParticle = fusion.BackendParticle
	FusionBackendESKF     = fusion.BackendESKF
)

// DefaultIMUConfig returns a BNO055-like sensor model.
func DefaultIMUConfig(seed int64) IMUConfig { return imu.DefaultConfig(seed) }

// SimulateIMU produces IMU readings along a trajectory.
func SimulateIMU(tr *Trajectory, cfg IMUConfig) []IMUReading { return imu.Simulate(tr, cfg) }

// NewParticleFilter initializes the map-constrained particle filter.
func NewParticleFilter(plan *Floorplan, initial Pose, cfg FusionConfig) *ParticleFilter {
	return fusion.NewFilter(plan, initial, cfg)
}

// DefaultFusionConfig returns the Fig. 21 filter settings.
func DefaultFusionConfig(seed int64) FusionConfig { return fusion.DefaultConfig(seed) }

// NewFusionBackend constructs the backend selected by cfg.Backend
// (particle filter or ESKF) around the known initial pose.
func NewFusionBackend(plan *Floorplan, initial Pose, cfg FusionConfig) (FusionBackend, error) {
	return fusion.New(plan, initial, cfg)
}

// ParseFusionBackend maps a flag value ("particle", "eskf") to its kind.
func ParseFusionBackend(s string) (FusionBackendKind, bool) { return fusion.ParseBackend(s) }

// System bundles an environment, an array, receiver impairments and the
// pipeline configuration into the one-call simulation workflow used by the
// examples: Measure a ground-truth motion end to end.
type System struct {
	env  *Environment
	arr  *Array
	rcfg ReceiverConfig
	ccfg CoreConfig
}

// NewSystem builds a System. cfg.Array is overwritten with arr.
func NewSystem(env *Environment, arr *Array, rcfg ReceiverConfig, cfg CoreConfig) *System {
	cfg.Array = arr
	return &System{env: env, arr: arr, rcfg: rcfg, ccfg: cfg}
}

// Array returns the receive array.
func (s *System) Array() *Array { return s.arr }

// Config returns the pipeline configuration.
func (s *System) Config() CoreConfig { return s.ccfg }

// Acquire simulates CSI for the motion and preprocesses it (sync, gap
// interpolation, phase sanitization).
func (s *System) Acquire(tr *Trajectory) (*Series, error) {
	return Collect(s.env, s.arr, tr, s.rcfg).Process(true)
}

// Measure runs acquisition plus the full RIM pipeline.
func (s *System) Measure(tr *Trajectory) (*Result, error) {
	series, err := s.Acquire(tr)
	if err != nil {
		return nil, err
	}
	return Process(series, s.ccfg)
}
