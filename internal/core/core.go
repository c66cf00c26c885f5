// Package core assembles RIM's motion reckoning (§4.4): it consumes a
// processed CSI series, detects movement, builds the per-pair-group TRRS
// alignment matrices, tracks alignment delays with the dynamic program,
// decides which antenna pairs are aligned (translation) or whether every
// adjacent pair is aligned (in-place rotation), and integrates speed,
// heading and rotation angle into motion estimates.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"time"

	"rim/internal/align"
	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/trace"
	"rim/internal/sigproc"
	"rim/internal/trrs"
)

// Config parameterizes the full RIM pipeline.
type Config struct {
	// Array describes the receive antenna geometry. Required.
	Array *array.Array
	// WindowSeconds is the one-sided lag window W of the alignment
	// matrices; it must exceed separation/speed for the slowest expected
	// motion (default 0.5 s, as in the paper).
	WindowSeconds float64
	// V is the number of virtual massive antennas (default 30; the paper
	// recommends ≥30 at 200 Hz).
	V int
	// Movement tunes the §4.1 movement detector. The §4.2–4.3 tracking,
	// pre-detection and post-check use align's defaults.
	Movement align.MovementConfig
	// MinSegmentSeconds discards movement segments shorter than this.
	MinSegmentSeconds float64
	// HeadingWindowSeconds is the duration of the sub-windows within a
	// movement segment over which the winning pair group (and hence the
	// heading) is re-selected. Curved strokes and sideway course changes
	// switch aligned pairs mid-segment; shorter windows track them at the
	// cost of less DP context (default 0.8 s).
	HeadingWindowSeconds float64
	// ContinuousHeading enables the §7 "angle resolution" extension: the
	// winning direction is refined between the array's discrete direction
	// set by comparing the alignment quality of the angularly adjacent
	// pair groups (TRRS decays with deviation angle, so the neighbours'
	// relative peak strengths locate the true heading inside the 30° bin).
	ContinuousHeading bool
	// DisablePairAveraging turns off the §4.2 parallel-pair matrix
	// averaging (ablation).
	DisablePairAveraging bool
	// Kernel selects the TRRS inner-product kernel (see trrs.Kernel).
	// DefaultConfig selects trrs.KernelVector, the lag-sweep kernel
	// (AVX2+FMA where supported, 1e-12-relative agreement, parity with
	// the oracle pinned by TestVectorDefaultParity). trrs.KernelSequential
	// — the zero value — is the bit-exact oracle, bit-for-bit identical to
	// the reference arithmetic.
	Kernel trrs.Kernel
	// Precision selects the TRRS plane storage precision (see
	// trrs.Precision). The zero value, trrs.PrecisionFloat64, is the
	// bit-exact reference; trrs.PrecisionFloat32 halves plane memory
	// traffic and doubles vector lanes at a ~1e-5 relative matrix error
	// (end-to-end error budget guarded by TestFloat32ErrorBudget).
	Precision trrs.Precision
	// Obs is the observability registry stage timers and counters report
	// into (see internal/obs and DESIGN.md "Observability"). nil — the
	// default — disables metrics; disabled instrumentation costs one nil
	// check per operation, guarded below 2% of a streaming hop by
	// TestObsOverheadGuard.
	Obs *obs.Registry
	// Logger receives structured pipeline events (log/slog): analysis
	// failures, dead-antenna transitions, sub-array fallbacks. nil uses
	// the package-level obs.Logger(), which discards records until the
	// embedding binary opts in via obs.SetLogger.
	Logger *slog.Logger
	// Trace is the causal event recorder the pipeline's stage spans,
	// segment decisions and estimate emissions report into (see
	// internal/obs/trace and DESIGN.md "Causal tracing"). nil — the
	// default — disables tracing at one nil check per event site.
	Trace *trace.Recorder
	// Flight is the flight recorder offered degradation triggers (degraded
	// estimates, analysis failures, dead antennas); it snapshots Trace's
	// recent past into a postmortem bundle. nil disables the offers.
	Flight *trace.Flight
	// Quality is the estimator-consistency engine (internal/obs/quality)
	// the pipeline's signal-quality telemetry reports into: per-slot
	// movement-indicator (κ) samples, segment peak-sharpness and
	// alignment residuals, and the confidence-calibration outcomes of
	// finalized moving estimates. nil — the default — disables the
	// telemetry at one nil check per hop.
	Quality *quality.Engine
	// arena, when non-nil, supplies recycled backings for the derived
	// (averaged, virtual-massive) matrices of one analysis pass. The
	// streaming front end threads a pooled arena through here so the
	// steady-state hop reuses hop-lifetime scratch instead of allocating
	// it; nil (batch runs) falls back to plain allocation. The matrices
	// of a pass become invalid at the arena's next Reset, which is fine:
	// Result retains no matrices.
	arena *trrs.MatrixArena
	// po holds the pipeline's stages and counters. The streaming front end
	// resolves them once per stream and threads them through here, so a
	// hop takes no registry lock; nil (batch runs) resolves them per
	// pipeline from Obs and Trace.
	po *pipelineObs
	// traceHop is the causal hop ID stamped on this pipeline's trace
	// events: 0 for batch runs, ≥ 1 for the streaming front end's hops
	// (core.Streamer threads it through before each re-analysis).
	traceHop int64
	// hopDeadline / hopCtx bound this analysis pass: Process checks them at
	// stage boundaries (before movement detection and before each segment)
	// and, once exceeded, stops analyzing and leaves the remaining slots as
	// degraded placeholders instead of stalling the caller. The zero values
	// (batch runs, streams without StreamConfig.HopDeadline) disable the
	// checks. Threaded by core.Streamer per hop.
	hopDeadline time.Time
	hopCtx      context.Context
	// emitLo/emitHi, when emitHi > 0, are the slots the caller keeps, its
	// emit window [emitLo, emitHi): Process still computes the movement
	// indicators, ZUPTs and segmentation over the whole span but analyzes
	// only the segments that overlap the window. A segment writes only its
	// own slots, so every estimate inside the window is the one a full
	// pass computes; slots outside it stay static placeholders and
	// Result.Segments lists only the analyzed segments. Set by
	// core.Streamer per hop on its incremental path, where the window
	// always ends past slot 0; the zero values (batch runs, the recompute
	// oracle) analyze every segment.
	emitLo, emitHi int
}

// analyzes reports whether Process should analyze the segment [start, end):
// always without an emit window, else when the segment overlaps it.
func (cfg *Config) analyzes(start, end int) bool {
	return cfg.emitHi <= 0 || (end > cfg.emitLo && start < cfg.emitHi)
}

// hopExpired reports whether the analysis deadline for this pass is gone:
// the hop context is done or the hop deadline has passed. Free when neither
// is set.
func (cfg *Config) hopExpired() bool {
	if cfg.hopCtx != nil {
		select {
		case <-cfg.hopCtx.Done():
			return true
		default:
		}
	}
	return !cfg.hopDeadline.IsZero() && time.Now().After(cfg.hopDeadline)
}

// logger resolves the configured logger (never nil).
func (cfg *Config) logger() *slog.Logger {
	if cfg.Logger != nil {
		return cfg.Logger
	}
	return obs.Logger()
}

// applyDefaults fills unset tuning fields with the paper's operating
// point; it is the one table of that point. The batch pipeline, the
// streamer and DefaultConfig all run it, so every path analyzes with
// identical parameters.
func (cfg *Config) applyDefaults() {
	if cfg.WindowSeconds <= 0 {
		cfg.WindowSeconds = 0.5
	}
	if cfg.V <= 0 {
		cfg.V = 30
	}
	if cfg.MinSegmentSeconds <= 0 {
		cfg.MinSegmentSeconds = 0.25
	}
	if cfg.HeadingWindowSeconds <= 0 {
		cfg.HeadingWindowSeconds = 0.8
	}
	// A zero MovementConfig.Threshold makes the movement trigger
	// unreachable, so every slot reads static and downstream consumers
	// (ZUPT extraction, fusion backends) see a device that never moves.
	if cfg.Movement == (align.MovementConfig{}) {
		cfg.Movement = align.DefaultMovementConfig()
	}
}

// releaseLevel is the movement indicator level at or above which a slot
// reads static: the hysteresis release level, never below the trigger.
// cfg must have defaults applied.
func (cfg *Config) releaseLevel() float64 {
	return max(cfg.Movement.ReleaseThreshold, cfg.Movement.Threshold)
}

// Fixed reckoning parameters of the paper's operating point.
const (
	// zuptMinSeconds discards zero-velocity intervals shorter than this:
	// a static run must persist before it is trusted as a zero-velocity
	// pseudo-measurement (see zupt.go).
	zuptMinSeconds = 0.2
	// rotationMinRingFrac is the fraction of adjacent-ring pairs that must
	// agree on one alignment lag to declare an in-place rotation.
	rotationMinRingFrac = 0.8
)

// speedSmoothHalf is the half-width (slots) of the speed moving average:
// 50 ms either side.
func speedSmoothHalf(rate float64) int { return int(rate / 20) }

// windowSlots converts the one-sided lag window to slots (min 3).
func windowSlots(windowSeconds, rate float64) int {
	w := int(math.Round(windowSeconds * rate))
	if w < 3 {
		w = 3
	}
	return w
}

// DefaultConfig returns the paper's operating point for the given array,
// with the vector TRRS kernel.
func DefaultConfig(arr *array.Array) Config {
	cfg := Config{Array: arr, Kernel: trrs.KernelVector}
	cfg.applyDefaults()
	return cfg
}

// FastConfig returns the fast operating point for the given array: the
// paper's point with a shorter lag window (W = 0.3 s) and fewer virtual
// antennas (V = 16), for brisk motions on the coarser fast RF config.
func FastConfig(arr *array.Array) Config {
	cfg := DefaultConfig(arr)
	cfg.WindowSeconds = 0.3
	cfg.V = 16
	return cfg
}

// MotionKind classifies a movement segment.
type MotionKind int

const (
	// MotionNone means the device is static.
	MotionNone MotionKind = iota
	// MotionTranslate is a linear move along an identified direction.
	MotionTranslate
	// MotionRotate is an in-place rotation.
	MotionRotate
)

// String implements fmt.Stringer.
func (k MotionKind) String() string {
	switch k {
	case MotionNone:
		return "none"
	case MotionTranslate:
		return "translate"
	case MotionRotate:
		return "rotate"
	default:
		return "unknown"
	}
}

// SegmentResult summarizes one movement segment.
type SegmentResult struct {
	Start, End int // slot range [Start, End)
	Kind       MotionKind
	// Distance is the translation distance in meters (MotionTranslate).
	Distance float64
	// HeadingBody is the body-frame motion direction in radians
	// (MotionTranslate); the array resolves it to its discrete direction
	// set.
	HeadingBody float64
	// Angle is the signed in-place rotation in radians (MotionRotate,
	// CCW positive).
	Angle float64
	// Confidence is the post-check confidence of the chosen alignment.
	Confidence float64
	// GroupDir and GroupSep identify the winning pair group.
	GroupDir, GroupSep float64
}

// Estimate is the per-slot motion output.
type Estimate struct {
	T           float64
	Moving      bool
	Kind        MotionKind
	Speed       float64 // m/s (translation) or arc speed (rotation)
	HeadingBody float64 // body-frame heading, NaN when not translating
	AngVel      float64 // rad/s, CCW positive, non-zero when rotating
	// Confidence is the §4.3 post-check confidence of the alignment that
	// produced this slot's motion ([0,1]; 0 for static or unresolved
	// slots). Downstream consumers weight or skip low-confidence slots.
	Confidence float64
	// Degraded marks slots produced under data-quality trouble: a large
	// fraction of antennas missing, a dead-antenna sub-array fallback, or
	// an analysis failure placeholder. Degraded estimates are safe (never
	// NaN speeds) but should be weighted down by consumers.
	Degraded bool
}

// Result is the full pipeline output.
type Result struct {
	Rate      float64
	Estimates []Estimate
	Segments  []SegmentResult
	// Distance is the total translation distance.
	Distance float64
	// RotationAngle is the total absolute in-place rotation.
	RotationAngle float64
	// MovementIndicator is the §4.1 self-TRRS statistic (exposed for the
	// Fig. 7 experiment).
	MovementIndicator []float64
	// ZUPTs are the confirmed zero-velocity intervals of the pass, ordered
	// and non-overlapping (see zupt.go). Fusion backends consume them as
	// pseudo-measurements.
	ZUPTs []ZUPTInterval
	// DeadlineExceeded reports that the analysis deadline expired before
	// the pass completed: the slots of every unprocessed stage were emitted
	// as degraded placeholders (never stale or fabricated motion).
	DeadlineExceeded bool
}

// groupMatrices holds one alignment matrix per parallel-isometric group.
type groupMatrix struct {
	group array.ParallelGroup
	m     *trrs.Matrix
}

// Pipeline precomputes the expensive pieces (TRRS engine, base matrices)
// once per CSI series so that segment-level queries stay cheap; the derived
// group and ring matrices are built on first need (see derive).
type Pipeline struct {
	cfg Config
	eng *trrs.Engine
	w   int
	// groupDefs and ringPairs are the array's pair geometry (see
	// pairGeometry); pairs are the distinct base-matrix pairs they need and
	// base the base matrices of pairs, in order.
	groupDefs []array.ParallelGroup
	ringPairs []array.Pair
	pairs     []trrs.PairSpec
	base      []*trrs.Matrix
	// derived reports whether groups and ring are built. groups holds one
	// averaged virtual-massive matrix per parallel group; ring holds the
	// per-adjacent-pair matrices for rotation detection (only for arrays
	// with ≥ 4 antennas arranged in a ring).
	derived bool
	groups  []groupMatrix
	ring    []groupMatrix
	// moving is the per-slot movement flag of the last Process call;
	// movingSoft is the permissive variant (indicator below the release
	// level) used to gate per-slot speed: a slot must look genuinely
	// static — not merely a hysteresis release flicker — before its
	// speed contribution is dropped.
	moving     []bool
	movingSoft []bool
	// fastInd is the fast-lag-only movement indicator: device motion
	// above ~0.2 m/s must decorrelate it, while environmental churn
	// (walking humans) barely touches it. Used to veto implausible
	// speed claims in churn-inflated segments.
	fastInd []float64
	// missFrac[t] is the fraction of antennas whose slot t sample was
	// interpolated (from the series' Missing mask); slots above
	// degradedMissFrac are marked Estimate.Degraded.
	missFrac []float64
}

// pipelineObs bundles the pipeline's stages and counters, resolved before
// the processing path runs so it never touches the registry map.
type pipelineObs struct {
	// build times the TRRS base-matrix build/extend during pipeline
	// construction and derived the derived matrices built from them
	// (pair average + virtual massive) on the passes that need them;
	// movement the §4.1 movement-detection stage; align the alignment
	// tracking + reckoning of each analyzed segment.
	build, derived, movement, align *trace.Stage
	// estimates/degraded count window slots analyzed by Process (the
	// streamer re-analyzes overlapping windows, so for streams this is a
	// work measure; finalized emissions are counted by rim_stream_*).
	estimates, degraded *obs.Counter
	segments            *obs.Counter
	// zuptIntervals/zuptSlots count zero-velocity intervals resolved by
	// Process and the static slots they cover (work measure for streams,
	// like rim_estimates_total).
	zuptIntervals, zuptSlots *obs.Counter
}

func newPipelineObs(reg *obs.Registry, rec *trace.Recorder) *pipelineObs {
	return &pipelineObs{
		build:     trace.NewStage(reg, rec, trace.KindBuild),
		derived:   trace.NewStage(reg, rec, trace.KindDerived),
		movement:  trace.NewStage(reg, rec, trace.KindMovement),
		align:     trace.NewStage(reg, rec, trace.KindAlign),
		estimates: reg.Counter("rim_estimates_total", "window slots analyzed by pipeline Process"),
		degraded:  reg.Counter("rim_estimates_degraded_total", "analyzed window slots flagged degraded"),
		segments: reg.Counter("rim_segments_total",
			"movement segments analyzed (streams: those overlapping the hop's emit window)"),
		zuptIntervals: reg.Counter("rim_zupt_intervals_total",
			"zero-velocity (ZUPT) intervals resolved by pipeline Process"),
		zuptSlots: reg.Counter("rim_zupt_slots_total",
			"window slots covered by resolved zero-velocity intervals"),
	}
}

// degradedMissFrac is the per-slot missing-antenna fraction above which an
// estimate is flagged degraded, by the batch pipeline and the streamer
// alike: with a third of the array interpolated the TRRS averages lean on
// fabricated data.
const degradedMissFrac = 1.0 / 3

// NewPipeline builds the pipeline for one CSI series.
func NewPipeline(s *csi.Series, cfg Config) (*Pipeline, error) {
	if cfg.Array == nil {
		return nil, fmt.Errorf("core: Config.Array is required")
	}
	if cfg.Array.NumAntennas() != s.NumAnts {
		return nil, fmt.Errorf("core: array has %d antennas but series has %d",
			cfg.Array.NumAntennas(), s.NumAnts)
	}
	cfg.applyDefaults()
	eng := trrs.NewEnginePrecision(s, cfg.Precision)
	eng.SetKernel(cfg.Kernel)
	eng.SetObs(cfg.Obs)
	eng.SetTrace(cfg.Trace)
	eng.SetHop(cfg.traceHop)
	return newPipelineFromEngine(eng, nil, missFracOf(s.Missing, s.NumAnts, s.NumSlots()), cfg)
}

// missFracOf computes the per-slot fraction of antennas whose sample was
// missing/interpolated. A nil mask yields nil (no degradation flagging).
func missFracOf(missing [][]bool, numAnts, slots int) []float64 {
	if missing == nil {
		return nil
	}
	out := make([]float64, slots)
	for t := range out {
		miss := 0
		for a := 0; a < numAnts && a < len(missing); a++ {
			if t < len(missing[a]) && missing[a][t] {
				miss++
			}
		}
		out[t] = float64(miss) / float64(numAnts)
	}
	return out
}

// pairGeometry derives the pipeline's pair structure from the array: the
// parallel-isometric groups (translation) and, for arrays with ≥ 4
// antennas arranged in a ring, the adjacent pairs (rotation detection).
func pairGeometry(arr *array.Array) ([]array.ParallelGroup, []array.Pair) {
	groups := arr.ParallelGroups(geom.Rad(2), 1e-6)
	var ring []array.Pair
	if arr.NumAntennas() >= 4 {
		ring = arr.AdjacentRing()
	}
	return groups, ring
}

// neededPairs collects the distinct base-matrix pairs the pipeline will
// request for the given geometry, deduplicated in request order: every
// pair of every parallel group (first pair only under
// DisablePairAveraging) plus the rotation ring. The batch bulk build and
// the streaming refresh both take this list, so the one build pass covers
// exactly the pairs the per-pair lookups will ask for.
func neededPairs(groups []array.ParallelGroup, ring []array.Pair, disablePairAveraging bool) []trrs.PairSpec {
	var pairs []trrs.PairSpec
	seen := map[[2]int]bool{}
	addPair := func(i, j int) {
		if !seen[[2]int{i, j}] {
			seen[[2]int{i, j}] = true
			pairs = append(pairs, trrs.PairSpec{I: i, J: j})
		}
	}
	for _, g := range groups {
		for k, pr := range g.Pairs {
			if disablePairAveraging && k > 0 {
				break
			}
			addPair(pr.I, pr.J)
		}
	}
	for _, pr := range ring {
		addPair(pr.I, pr.J)
	}
	return pairs
}

// newPipelineFromEngine assembles a pipeline over an existing TRRS engine.
// base supplies the base matrices of the given pairs (antenna indices
// local to the engine), in order, and runs inside the build stage; nil
// selects the default bulk computation, trrs.Engine.BaseMatrices, which
// fans every needed pair's time blocks out over one worker pool. The
// streaming front end passes an incremental-engine source instead, which
// runs the same work list serially. cfg must already have
// defaults applied and an Array matching the engine's antenna count.
func newPipelineFromEngine(eng *trrs.Engine, base func(pairs []trrs.PairSpec) ([]*trrs.Matrix, error), missFrac []float64, cfg Config) (*Pipeline, error) {
	if cfg.Array.NumAntennas() != eng.NumAntennas() {
		return nil, fmt.Errorf("core: array has %d antennas but engine has %d",
			cfg.Array.NumAntennas(), eng.NumAntennas())
	}
	if cfg.po == nil {
		cfg.po = newPipelineObs(cfg.Obs, cfg.Trace)
	}
	p := &Pipeline{cfg: cfg, eng: eng, missFrac: missFrac}
	p.w = windowSlots(cfg.WindowSeconds, eng.Rate())
	// The build stage times the base matrices; the derived matrices built
	// from them are timed by derive, on the passes that need them.
	build := cfg.po.build.Start(cfg.traceHop, -1)

	// Base matrices are shared between translation groups and the
	// rotation ring; collect the distinct pairs first so the source
	// computes each exactly once, in one pass that sweeps each pair in
	// time order (see trrs.BaseMatrices and Incremental.ExtendMatrices).
	// Reversed pairs and self-pairs need no handling here: the engines
	// derive them by the Hermitian reflection instead of recomputing.
	p.groupDefs, p.ringPairs = pairGeometry(cfg.Array)
	p.pairs = neededPairs(p.groupDefs, p.ringPairs, cfg.DisablePairAveraging)
	var err error
	if base == nil {
		p.base = eng.BaseMatrices(p.pairs, p.w)
	} else {
		p.base, err = base(p.pairs)
	}
	build.End()
	if err != nil {
		return nil, err
	}
	// Validate the derived matrices' inputs now, so a malformed base
	// matrix fails construction rather than the pass that first needs it.
	for _, g := range p.groupDefs {
		ms := p.groupBase(g)
		if err := trrs.CheckAverageMatrices(ms...); err != nil {
			return nil, fmt.Errorf("core: group matrices: %w", err)
		}
		if err := trrs.CheckVirtualMassive(ms[0]); err != nil {
			return nil, fmt.Errorf("core: group matrices: %w", err)
		}
	}
	for _, pr := range p.ringPairs {
		if err := trrs.CheckVirtualMassive(p.baseFor(pr.I, pr.J)); err != nil {
			return nil, fmt.Errorf("core: ring matrices: %w", err)
		}
	}
	return p, nil
}

// baseFor returns the base matrix of pair (i, j), or nil.
func (p *Pipeline) baseFor(i, j int) *trrs.Matrix {
	for k, pr := range p.pairs {
		if pr.I == i && pr.J == j {
			return p.base[k]
		}
	}
	return nil
}

// groupBase returns the base matrices group g averages: every pair, or the
// first one only under DisablePairAveraging.
func (p *Pipeline) groupBase(g array.ParallelGroup) []*trrs.Matrix {
	ms := make([]*trrs.Matrix, 0, len(g.Pairs))
	for _, pr := range g.Pairs {
		ms = append(ms, p.baseFor(pr.I, pr.J))
		if p.cfg.DisablePairAveraging {
			break
		}
	}
	return ms
}

// derive builds the derived alignment matrices once per pipeline: each
// parallel group's pair average through the virtual-massive box filter,
// and each ring pair's virtual-massive matrix. Process calls it before the
// first segment it analyzes, so a pass that analyzes no segment never
// builds them; the group accessors call it too. Batch and stream share
// this one path. The inputs were validated at construction, so the
// builders cannot fail here.
func (p *Pipeline) derive() {
	if p.derived {
		return
	}
	p.derived = true
	defer p.cfg.po.derived.Start(p.cfg.traceHop, -1).End()
	must := func(m *trrs.Matrix, err error) *trrs.Matrix {
		if err != nil {
			panic(fmt.Sprintf("core: derived matrix inputs validated at construction: %v", err))
		}
		return m
	}
	arena, v := p.cfg.arena, p.cfg.V
	for _, g := range p.groupDefs {
		// A one-pair group (the pair array's, a long diagonal, or any
		// under DisablePairAveraging) skips the average: it would be a
		// copy scaled by 1/1, the same bits.
		ms := p.groupBase(g)
		avg := ms[0]
		if len(ms) > 1 {
			avg = must(trrs.AverageMatricesInto(arena, ms...))
		}
		vm := must(trrs.VirtualMassiveInto(arena, avg, v))
		p.groups = append(p.groups, groupMatrix{group: g, m: vm})
	}
	for _, pr := range p.ringPairs {
		vm := must(trrs.VirtualMassiveInto(arena, p.baseFor(pr.I, pr.J), v))
		p.ring = append(p.ring, groupMatrix{
			group: array.ParallelGroup{
				Pairs:      []array.Pair{pr},
				Direction:  p.cfg.Array.Direction(pr),
				Separation: p.cfg.Array.Separation(pr),
			},
			m: vm,
		})
	}
}

// Engine exposes the underlying TRRS engine (used by applications that need
// raw alignment matrices, e.g. gesture recognition).
func (p *Pipeline) Engine() *trrs.Engine { return p.eng }

// Window returns the one-sided lag window in slots.
func (p *Pipeline) Window() int { return p.w }

// Process runs the full pipeline and returns per-slot and per-segment
// motion estimates.
func (p *Pipeline) Process() *Result {
	rate := p.eng.Rate()
	slots := p.eng.NumSlots()
	res := &Result{Rate: rate}
	hop := p.cfg.traceHop
	po := p.cfg.po
	var batchHop trace.Timing
	if hop == 0 {
		// Batch runs have no Streamer timing the hop; the whole Process is
		// the one "hop", covering every slot, traced but not metered. The
		// span is ended before any flight-recorder offer so a postmortem
		// bundle always contains the hop span it needs for lineage.
		batchHop = trace.NewStage(nil, p.cfg.Trace, trace.KindHop).Start(0, -1)
	}
	// Deadline gate: every stage boundary below re-checks it, and a pass
	// that runs out of budget finishes immediately with degraded
	// placeholders for everything it did not get to — a late answer that
	// says "I don't know" beats a stalled session.
	var moving []bool
	if p.cfg.hopExpired() {
		res.DeadlineExceeded = true
	} else {
		movement := po.movement.Start(hop, -1)
		res.MovementIndicator, p.fastInd = align.MovementIndicators(p.eng, p.cfg.Movement)
		moving = align.ThresholdWithHysteresis(res.MovementIndicator, p.cfg.Movement)
		p.moving = moving
		release := p.cfg.releaseLevel()
		p.movingSoft = make([]bool, len(res.MovementIndicator))
		for t, v := range res.MovementIndicator {
			p.movingSoft[t] = v < release
		}
		movement.End()
		res.ZUPTs = p.extractZUPTs(res.MovementIndicator, release, int(zuptMinSeconds*rate))
		p.emitZUPTs(res.ZUPTs, hop)
	}
	res.Estimates = make([]Estimate, slots)
	dt := 1 / rate
	for t := range res.Estimates {
		res.Estimates[t] = Estimate{T: float64(t) * dt, HeadingBody: math.NaN()}
		if p.missFrac != nil && t < len(p.missFrac) && p.missFrac[t] >= degradedMissFrac {
			res.Estimates[t].Degraded = true
		}
		if res.DeadlineExceeded {
			// No movement analysis ran at all: every slot is an unknown.
			res.Estimates[t].Degraded = true
		}
	}

	if !res.DeadlineExceeded {
		minLen := int(p.cfg.MinSegmentSeconds * rate)
		segs := align.Segments(moving, minLen, int(0.3*rate))
		// Trim each segment to the region where the indicator actually hit
		// the trigger level (plus a short pad): when the device stops in a
		// low-SNR spot the indicator may never climb back above the release
		// level, which would otherwise glue a long static tail onto the
		// segment and starve its final heading window.
		pad := int(0.08 * rate)
		indSm := sigproc.MedianFilter(res.MovementIndicator, 5)
		for si := range segs {
			start, end := segs[si][0], segs[si][1]
			for end-1 > start && indSm[end-1] >= p.cfg.Movement.Threshold {
				end--
			}
			end += pad
			if end > segs[si][1] {
				end = segs[si][1]
			}
			if end-start >= minLen {
				segs[si][1] = end
			}
		}
		// Split segments at sustained trigger-level-static runs: when the
		// device stops in a channel fade the indicator can sit between the
		// trigger and release levels, gluing two motions into one segment.
		// Genuine motion never holds the indicator above the trigger level
		// for long, so a ≥0.4 s run there marks an interior idle.
		segs = splitAtInteriorIdles(segs, indSm, p.cfg.Movement.Threshold, int(0.4*rate), minLen)
		for _, seg := range segs {
			if !p.cfg.analyzes(seg[0], seg[1]) {
				// Outside the caller's emit window: nothing reads this
				// segment's slots, so its analysis would be thrown away.
				continue
			}
			if !res.DeadlineExceeded && p.cfg.hopExpired() {
				res.DeadlineExceeded = true
			}
			if res.DeadlineExceeded {
				// Out of budget: this segment's motion stays unresolved.
				// Its slots keep the static placeholder, flagged degraded.
				for t := seg[0]; t < seg[1] && t < len(res.Estimates); t++ {
					res.Estimates[t].Degraded = true
				}
				continue
			}
			p.derive()
			align := po.align.Start(hop, int64(seg[0]))
			sr := p.processSegment(seg[0], seg[1], res)
			align.End()
			p.cfg.Trace.Emit(trace.KindSegment, hop, int64(sr.Start), int64(sr.End), int64(sr.Kind))
			res.Segments = append(res.Segments, sr)
			switch sr.Kind {
			case MotionTranslate:
				res.Distance += sr.Distance
			case MotionRotate:
				res.RotationAngle += math.Abs(sr.Angle)
			}
		}
	}
	po.segments.Add(uint64(len(res.Segments)))
	po.estimates.Add(uint64(len(res.Estimates)))
	var deg uint64
	if po.degraded != nil || (hop == 0 && (p.cfg.Trace != nil || p.cfg.Flight != nil)) {
		for i := range res.Estimates {
			if res.Estimates[i].Degraded {
				deg++
				if hop == 0 {
					// Batch slot IDs are absolute, so degraded emissions go
					// straight into the lineage (streams emit estimate events
					// from the Streamer, which knows the absolute slot).
					p.cfg.Trace.Emit(trace.KindEstimate, 0, int64(i), 1, int64(res.Estimates[i].Kind))
				}
			}
		}
		po.degraded.Add(deg)
	}
	batchHop.EndArgs(0, int64(slots))
	if hop == 0 && deg > 0 {
		p.cfg.Flight.Offer(trace.ReasonDegradedEstimates, 0, nil)
	}
	return res
}

// ProcessSeries is the one-call convenience: build a pipeline and process.
func ProcessSeries(s *csi.Series, cfg Config) (*Result, error) {
	p, err := NewPipeline(s, cfg)
	if err != nil {
		return nil, err
	}
	return p.Process(), nil
}

// splitAtInteriorIdles cuts each segment wherever the (median-smoothed)
// movement indicator stays at or above the trigger threshold for at least
// idleLen consecutive slots; sub-segments shorter than minLen are dropped.
func splitAtInteriorIdles(segs [][2]int, indSm []float64, threshold float64, idleLen, minLen int) [][2]int {
	if idleLen < 1 {
		return segs
	}
	var out [][2]int
	for _, seg := range segs {
		start := seg[0]
		i := seg[0]
		for i < seg[1] {
			if indSm[i] < threshold {
				i++
				continue
			}
			j := i
			for j < seg[1] && indSm[j] >= threshold {
				j++
			}
			if j-i >= idleLen {
				if i-start >= minLen {
					out = append(out, [2]int{start, i})
				}
				start = j
			}
			i = j
		}
		if seg[1]-start >= minLen {
			out = append(out, [2]int{start, seg[1]})
		}
	}
	return out
}
