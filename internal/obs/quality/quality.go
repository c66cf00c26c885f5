// Package quality is the estimator-consistency layer of the observability
// stack: it consumes fusion-filter internals (per-update innovations and
// covariance terms, particle-cloud weight statistics) and TRRS
// signal-quality measures, and turns them into online statistical verdicts
// — is the filter's covariance honest, are the reported confidences
// calibrated — long before a trajectory visibly diverges.
//
// The core test is classical: when a Kalman-style filter is consistent,
// each scalar measurement update's Normalized Innovation Squared
// (NIS = ν²/S, with S = h·P·hᵀ + r the innovation variance) is
// chi-square(1) distributed, so at most ~5% of samples may exceed the 95%
// band bound. Each measurement channel keeps a sliding window of
// in/outside-band verdicts; the windowed fraction outside the band drives
// a per-channel ok → warn → alert state machine. A mis-tuned filter —
// real noise far above the configured measurement noise, or a deflated R
// — pushes the fraction far beyond the band's nominal 5% leak and trips
// the alert within a bounded number of updates. Alert transitions offer a
// trace.ReasonQualityBreach flight-recorder capture, so the statistical
// breach arrives with the causal trace that explains it.
//
// The particle filter, which has no innovations, is monitored through its
// effective sample size and weight entropy. A confidence-calibration
// accumulator (calibration.go) bins reported estimate Confidence against
// realized outcomes into a reliability curve.
//
// Everything is nil-safe in the repo's obs idiom: a nil *Engine and the
// nil *Monitor it hands out no-op at one nil check per call, so
// un-monitored runs pay nothing (guarded by TestObsOverheadGuard).
package quality

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rim/internal/obs"
	"rim/internal/obs/trace"
)

// State is a monitor's consistency verdict.
type State uint8

const (
	// StateOK: the windowed outside-band fraction is at or below the
	// band's nominal leak (plus margin), or the window has too few
	// samples for a verdict.
	StateOK State = iota
	// StateWarn: the fraction exceeds warnFrac — the filter is leaking
	// beyond its band but not yet decisively inconsistent.
	StateWarn
	// StateAlert: the fraction exceeds alertFrac — the filter is
	// statistically inconsistent with its own covariance.
	StateAlert
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarn:
		return "warn"
	case StateAlert:
		return "alert"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Config parameterizes the consistency engine. Zero fields take the
// documented defaults.
type Config struct {
	// Obs receives the engine's metric surface (rim_quality_*, see
	// DESIGN.md "Estimator-quality observability"). nil disables metrics.
	Obs *obs.Registry
	// Trace, when non-nil, receives one trace.KindQuality event per
	// monitor state transition (A = new state ordinal, B = windowed
	// outside-band fraction in permille).
	Trace *trace.Recorder
	// Flight is offered a trace.ReasonQualityBreach capture when a
	// monitor enters StateAlert. nil disables the offers.
	Flight *trace.Flight
	// Window is the per-channel sliding window length in updates
	// (default 64).
	Window int
	// OnTransition, when non-nil, observes every monitor state change
	// (after metrics/trace/flight are updated). Called synchronously
	// with the engine lock NOT held.
	OnTransition func(entity string, from, to State, channel string, outsideFrac float64)
}

const (
	// bandConf is the chi-square acceptance band's confidence level (see
	// ChiSquareUpper).
	bandConf = 0.95
	// warnFrac and alertFrac are the windowed outside-band fractions at
	// which a channel degrades to warn and alert. Both sit far above the
	// band's nominal 5% leak, so a clean filter's expected leakage cannot
	// flap the state machine.
	warnFrac  = 0.2
	alertFrac = 0.5
	// pfLowESS is the effective-sample-size fraction below which a
	// particle-filter step counts as outside-band: the cloud has
	// collapsed to a tenth of its nominal diversity.
	pfLowESS = 0.1
	// calBins is the confidence-calibration bin count.
	calBins = 10
)

// minSamples is the window fill required before a verdict, a quarter of
// the window: a handful of early samples must not page anyone.
func (e *Engine) minSamples() int {
	return max(e.cfg.Window/4, 1)
}

// nisBuckets bound the band-relative NIS histograms: 1.0 is the band
// edge, so everything above the 1 bucket is band leakage.
var nisBuckets = []float64{0.05, 0.1, 0.25, 0.5, 0.75, 1, 2, 5, 10, 25, 100}

// fracBuckets bound the [0,1]-valued signal-quality histograms.
var fracBuckets = []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1}

// Engine is the process-wide consistency engine: it owns one Monitor per
// tracked entity (a session, a batch run), the shared metric families,
// and the confidence-calibration accumulator. All methods are nil-safe.
type Engine struct {
	cfg Config

	mu   sync.Mutex
	mons map[string]*Monitor

	cal *Calibration

	// Lifetime totals for SLO sources: consistency samples seen and
	// samples outside their band, across every entity and channel.
	totSamples atomic.Uint64
	totOutside atomic.Uint64

	// Metric handles (nil when cfg.Obs is nil; all nil-safe).
	nisH        *obs.HistogramFamily // label: channel; NIS / band bound
	outsideC    *obs.CounterFamily   // label: channel
	samplesC    *obs.Counter
	stateG      *obs.GaugeFamily   // label: entity; 0 ok / 1 warn / 2 alert
	transitions *obs.CounterFamily // label: to
	essH        *obs.Histogram
	entropyH    *obs.Histogram
	kappaH      *obs.Histogram
	sharpH      *obs.Histogram
	residH      *obs.Histogram
	calC        *obs.CounterFamily // label: outcome
}

// New builds a consistency engine. A nil return is impossible; pass the
// zero Config for an engine with defaults and no metric surface.
func New(cfg Config) *Engine {
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	e := &Engine{cfg: cfg, mons: map[string]*Monitor{}, cal: NewCalibration(calBins)}
	if r := cfg.Obs; r != nil {
		byChannel := obs.FamilyOpts{Labels: []string{"channel"}, Bounds: nisBuckets}
		e.nisH = r.HistogramFamily("rim_quality_nis_ratio",
			"per-update normalized innovation squared relative to the chi-square band bound (1 = band edge)", byChannel)
		e.outsideC = r.CounterFamily("rim_quality_outside_band_total",
			"consistency samples outside their chi-square acceptance band",
			obs.FamilyOpts{Labels: []string{"channel"}})
		e.samplesC = r.Counter("rim_quality_samples_total",
			"consistency samples (innovations, PF steps) checked against a band")
		e.stateG = r.GaugeFamily("rim_quality_state",
			"per-entity consistency verdict: 0 ok, 1 warn, 2 alert",
			obs.FamilyOpts{Labels: []string{"entity"}})
		e.transitions = r.CounterFamily("rim_quality_transitions_total",
			"monitor state-machine transitions by destination state",
			obs.FamilyOpts{Labels: []string{"to"}})
		e.essH = r.Histogram("rim_quality_pf_ess_ratio",
			"particle-filter effective sample size as a fraction of the cloud", fracBuckets)
		e.entropyH = r.Histogram("rim_quality_pf_entropy_ratio",
			"particle-weight entropy as a fraction of the uniform-cloud maximum ln N", fracBuckets)
		e.kappaH = r.Histogram("rim_quality_kappa_ratio",
			"TRRS movement-indicator (self-TRRS kappa) of finalized slots", fracBuckets)
		e.sharpH = r.Histogram("rim_quality_sharpness_ratio",
			"post-check alignment confidence (TRRS peak sharpness) of resolved segments", fracBuckets)
		e.residH = r.Histogram("rim_quality_align_residual_ratio",
			"alignment residual 1-confidence of resolved moving slots", fracBuckets)
		e.calC = r.CounterFamily("rim_quality_calibration_samples_total",
			"confidence-calibration samples by realized outcome",
			obs.FamilyOpts{Labels: []string{"outcome"}})
	}
	return e
}

// Calibration returns the engine's confidence-calibration accumulator
// (nil on a nil engine; the nil accumulator no-ops).
func (e *Engine) Calibration() *Calibration {
	if e == nil {
		return nil
	}
	return e.cal
}

// Monitor returns the consistency monitor for the entity, creating it on
// first use. Resolve once per entity and hold the handle. Nil-safe: a nil
// engine returns a nil monitor whose methods no-op.
func (e *Engine) Monitor(entity string) *Monitor {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.mons[entity]; ok {
		return m
	}
	m := &Monitor{eng: e, entity: entity, stateG: e.stateG.With(entity)}
	m.stateG.Set(float64(StateOK))
	e.mons[entity] = m
	return m
}

// Forget retires an entity's monitor and its labeled series (call on
// session close, mirroring session.Metrics.forgetSession).
func (e *Engine) Forget(entity string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	delete(e.mons, entity)
	e.mu.Unlock()
	e.stateG.Forget(entity)
}

// ObserveKappa records a TRRS movement-indicator sample (self-TRRS κ of a
// finalized slot, in [0,1]).
func (e *Engine) ObserveKappa(v float64) {
	if e == nil {
		return
	}
	e.kappaH.Observe(v)
}

// ObserveSharpness records a resolved segment's post-check alignment
// confidence (the TRRS peak-sharpness measure, in [0,1]).
func (e *Engine) ObserveSharpness(v float64) {
	if e == nil {
		return
	}
	e.sharpH.Observe(v)
}

// ObserveAlignResidual records a resolved moving slot's alignment
// residual 1−confidence: the alignment mass not explained by the winning
// pair group.
func (e *Engine) ObserveAlignResidual(v float64) {
	if e == nil {
		return
	}
	e.residH.Observe(v)
}

// ObserveOutcome feeds one (reported confidence, realized outcome) pair
// into the calibration accumulator. good means the estimate held up:
// non-degraded and not contradicted by a resolved zero-velocity interval
// (or within the error budget against sim ground truth).
func (e *Engine) ObserveOutcome(conf float64, good bool) {
	if e == nil {
		return
	}
	if !e.cal.Add(conf, good) {
		return
	}
	if good {
		e.calC.With("good").Inc()
	} else {
		e.calC.With("bad").Inc()
	}
}

// Totals returns the lifetime (samples, outside-band) consistency counts
// across every entity — the cumulative pair a fleet SLO source reads.
func (e *Engine) Totals() (samples, outside uint64) {
	if e == nil {
		return 0, 0
	}
	return e.totSamples.Load(), e.totOutside.Load()
}

// transition publishes one monitor state change: gauge, counter, trace
// event, flight-recorder offer on alert, then the user hook.
func (e *Engine) transition(m *Monitor, from, to State, channel string, frac float64) {
	m.stateG.Set(float64(to))
	e.transitions.With(to.String()).Inc()
	if e.cfg.Trace != nil {
		e.cfg.Trace.Emit(trace.KindQuality, 0, -1, int64(to), int64(frac*1000))
	}
	if to == StateAlert {
		e.cfg.Flight.Offer(trace.ReasonQualityBreach, -1, map[string]any{
			"entity":       m.entity,
			"channel":      channel,
			"outside_frac": frac,
			"band_conf":    bandConf,
		})
	}
	if e.cfg.OnTransition != nil {
		e.cfg.OnTransition(m.entity, from, to, channel, frac)
	}
}

// maxInnovChans bounds the innovation-channel ordinals a Monitor tracks
// (fusion.NumChannels is 4; the slack absorbs future channels without a
// resize).
const maxInnovChans = 8

// chanWindow is one channel's sliding in/outside-band window plus its
// state-machine position.
type chanWindow struct {
	name    string
	ring    []bool // outside-band flags, ring-buffered
	n, idx  int    // fill and write cursor
	outside int    // outside-band count within the window
	samples uint64 // lifetime samples
	state   State

	// Resolved metric children (nil-safe).
	nisH *obs.Histogram
	outC *obs.Counter
}

func (w *chanWindow) add(outside bool) {
	if w.n == len(w.ring) {
		if w.ring[w.idx] {
			w.outside--
		}
	} else {
		w.n++
	}
	w.ring[w.idx] = outside
	if outside {
		w.outside++
	}
	w.idx++
	if w.idx == len(w.ring) {
		w.idx = 0
	}
	w.samples++
}

func (w *chanWindow) frac() float64 {
	if w.n == 0 {
		return 0
	}
	return float64(w.outside) / float64(w.n)
}

// Monitor tracks one entity's estimator consistency. All methods are
// nil-safe and internally locked; the lock is per-monitor, so concurrent
// sessions never contend.
type Monitor struct {
	eng    *Engine
	entity string
	stateG *obs.Gauge

	mu    sync.Mutex
	chans [maxInnovChans]*chanWindow
	pf    *chanWindow
	state State
}

func (m *Monitor) window(name string) *chanWindow {
	return &chanWindow{
		name: name,
		ring: make([]bool, m.eng.cfg.Window),
		nisH: m.eng.nisH.With(name),
		outC: m.eng.outsideC.With(name),
	}
}

// observe pushes one in/outside-band verdict through a channel window and
// runs the state machine. Caller holds m.mu; transitions are published
// after unlock by the returned closure (nil when no transition).
func (m *Monitor) observe(w *chanWindow, outside bool) func() {
	w.add(outside)
	m.eng.totSamples.Add(1)
	m.eng.samplesC.Inc()
	if outside {
		m.eng.totOutside.Add(1)
		w.outC.Inc()
	}
	st := StateOK
	if w.n >= m.eng.minSamples() {
		switch f := w.frac(); {
		case f >= alertFrac:
			st = StateAlert
		case f >= warnFrac:
			st = StateWarn
		}
	}
	w.state = st
	worst := m.worstLocked()
	if worst == m.state {
		return nil
	}
	from, frac := m.state, w.frac()
	m.state = worst
	name := w.name
	return func() { m.eng.transition(m, from, worst, name, frac) }
}

func (m *Monitor) worstLocked() State {
	worst := StateOK
	for _, w := range m.chans {
		if w != nil && w.state > worst {
			worst = w.state
		}
	}
	if m.pf != nil && m.pf.state > worst {
		worst = m.pf.state
	}
	return worst
}

// Innovation records one scalar measurement update on channel ch (a
// stable small ordinal, e.g. the fusion.Chan* constants) with the given
// channel name, innovation nu and innovation variance s. NIS = nu²/s is
// checked against the chi-square(1) band. The signature matches
// fusion.Config.Innovations up to the name argument.
func (m *Monitor) Innovation(ch int, name string, nu, s float64) {
	if m == nil || s <= 0 {
		return
	}
	nis := nu * nu / s
	bound := ChiSquareUpper(1)
	m.mu.Lock()
	if ch < 0 || ch >= maxInnovChans {
		ch = maxInnovChans - 1
	}
	w := m.chans[ch]
	if w == nil {
		w = m.window(name)
		m.chans[ch] = w
	}
	w.nisH.Observe(nis / bound)
	fire := m.observe(w, nis > bound)
	m.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// PFStep records one particle-filter step's effective-sample-size
// fraction and normalized weight entropy. A step below pfLowESS counts as
// outside-band: the cloud has degenerated. The signature matches
// fusion.Config.PFStats.
func (m *Monitor) PFStep(essFrac, entropyFrac float64) {
	if m == nil {
		return
	}
	m.eng.essH.Observe(essFrac)
	m.eng.entropyH.Observe(entropyFrac)
	m.mu.Lock()
	if m.pf == nil {
		m.pf = m.window("pf_ess")
	}
	fire := m.observe(m.pf, essFrac < pfLowESS)
	m.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// State returns the monitor's current verdict (worst channel).
func (m *Monitor) State() State {
	if m == nil {
		return StateOK
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Summary returns the verdict, the worst channel's windowed outside-band
// fraction, and the lifetime sample count — the triple surfaced per
// session in /sessions and rimtop.
func (m *Monitor) Summary() (state State, worstFrac float64, samples uint64) {
	if m == nil {
		return StateOK, 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	each := func(w *chanWindow) {
		if w == nil {
			return
		}
		samples += w.samples
		if w.n >= m.eng.minSamples() && w.frac() > worstFrac {
			worstFrac = w.frac()
		}
	}
	for _, w := range m.chans {
		each(w)
	}
	each(m.pf)
	return m.state, worstFrac, samples
}

// ChannelSnapshot is one channel's verdict in a quality snapshot.
type ChannelSnapshot struct {
	Channel     string  `json:"channel"`
	Samples     uint64  `json:"samples"`
	WindowFill  int     `json:"window_fill"`
	OutsideFrac float64 `json:"outside_frac"`
	State       string  `json:"state"`
}

// EntitySnapshot is one entity's verdict in a quality snapshot.
type EntitySnapshot struct {
	Entity   string            `json:"entity"`
	State    string            `json:"state"`
	Channels []ChannelSnapshot `json:"channels"`
}

// Snapshot is the engine's full verdict surface, served on /quality.
type Snapshot struct {
	BandConf       float64          `json:"band_conf"`
	Samples        uint64           `json:"samples"`
	Outside        uint64           `json:"outside"`
	Entities       []EntitySnapshot `json:"entities"`
	Calibration    []CalBin         `json:"calibration"`
	CalibrationECE float64          `json:"calibration_ece"`
}

func (m *Monitor) snapshot() EntitySnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	es := EntitySnapshot{Entity: m.entity, State: m.state.String()}
	add := func(w *chanWindow) {
		if w == nil {
			return
		}
		es.Channels = append(es.Channels, ChannelSnapshot{
			Channel:     w.name,
			Samples:     w.samples,
			WindowFill:  w.n,
			OutsideFrac: w.frac(),
			State:       w.state.String(),
		})
	}
	for _, w := range m.chans {
		add(w)
	}
	add(m.pf)
	return es
}

// Snapshot assembles the engine-wide verdict surface: every entity's
// per-channel windows, the lifetime totals and the calibration curve.
func (e *Engine) Snapshot() Snapshot {
	if e == nil {
		return Snapshot{}
	}
	e.mu.Lock()
	mons := make([]*Monitor, 0, len(e.mons))
	for _, m := range e.mons {
		mons = append(mons, m)
	}
	e.mu.Unlock()
	sort.Slice(mons, func(i, j int) bool { return mons[i].entity < mons[j].entity })
	s := Snapshot{BandConf: bandConf}
	s.Samples, s.Outside = e.Totals()
	for _, m := range mons {
		s.Entities = append(s.Entities, m.snapshot())
	}
	s.Calibration = e.cal.Curve()
	s.CalibrationECE = ExpectedCalibrationError(s.Calibration)
	return s
}
