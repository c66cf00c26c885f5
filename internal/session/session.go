package session

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"time"

	"rim/internal/core"
	"rim/internal/fusion"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/trace"
	"rim/internal/trrs"
)

// Spec is the CSI shape of one session's stream.
type Spec struct {
	Rate    float64
	NumAnts int
	NumTx   int
	NumSub  int
}

func (s Spec) validate() error {
	if !trrs.ValidRate(s.Rate) || s.NumAnts <= 0 || s.NumTx <= 0 || s.NumSub <= 0 {
		return fmt.Errorf("session: spec (%v Hz, %d antennas, %d tx, %d tones) must be positive, at most %g Hz",
			s.Rate, s.NumAnts, s.NumTx, s.NumSub, trrs.MaxRate)
	}
	return nil
}

// Stream is the per-session analysis engine the supervisor drives —
// core.Streamer in production, fakes in the supervisor tests.
type Stream interface {
	PushMaskedCtx(ctx context.Context, snapshot [][][]complex128, missing []bool) ([]core.Estimate, error)
	Flush() []core.Estimate
	Health() core.Health
	Checkpoint() *core.StreamCheckpoint
}

// hopStretcher is the optional degrade-to-coarser-hop hook (implemented by
// core.Streamer; fakes may omit it).
type hopStretcher interface{ SetHopFactor(int) }

// perStreamObserver is the optional per-entity metric attachment hook
// (implemented by core.Streamer): when the metrics bundle carries labeled
// families, each session hands its own lag child to its stream.
type perStreamObserver interface{ SetPerStreamObs(core.PerStreamObs) }

// StreamFactory builds a session's Stream, restoring from cp when non-nil
// (a supervisor restart or a daemon-level restore).
type StreamFactory func(id string, spec Spec, cp *core.StreamCheckpoint) (Stream, error)

// State is a session's lifecycle state. Transitions:
//
//	admitted → running → closed            (graceful)
//	running → backoff → running            (supervised restart)
//	backoff → quarantined                  (restarts stopped helping)
type State int32

const (
	StateAdmitted State = iota
	StateRunning
	StateBackoff
	StateQuarantined
	StateClosed
)

// String returns the state's log/JSON spelling.
func (s State) String() string {
	switch s {
	case StateAdmitted:
		return "admitted"
	case StateRunning:
		return "running"
	case StateBackoff:
		return "backoff"
	case StateQuarantined:
		return "quarantined"
	case StateClosed:
		return "closed"
	}
	return "unknown"
}

// MarshalText makes the state JSON-friendly in health payloads.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Config parameterizes every session a Registry owns.
type Config struct {
	// Factory builds each session's Stream (required).
	Factory StreamFactory
	// Queue is the per-session frame queue capacity (default 64).
	Queue int
	// Policy selects the full-queue behavior (default DropOldest).
	Policy Policy
	// HighWater/LowWater are queue-occupancy fractions bounding the
	// Degrade policy's hysteresis: above HighWater the session coarsens
	// its hop, below LowWater it restores it (defaults 0.75 / 0.25).
	HighWater float64
	LowWater  float64
	// PushDeadline bounds each ingest→hop→emit step through the stream; a
	// hop that overruns emits degraded placeholders (see
	// core.StreamConfig.HopDeadline). Zero disables.
	PushDeadline time.Duration
	// FailureThreshold restarts the stream after this many consecutive
	// ErrAnalysis failures (transient failures below it just degrade the
	// affected windows; default 5).
	FailureThreshold int
	// MaxRestarts quarantines a session after this many consecutive
	// restarts without a healthy run (default 3).
	MaxRestarts int
	// BackoffMin/BackoffMax bound the exponential restart backoff
	// (defaults 50ms / 2s); each wait gets ±25% jitter.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// HealthyAfter resets the consecutive-restart count once a restarted
	// session has run cleanly this long (default 5s).
	HealthyAfter time.Duration
	// CheckpointEveryFrames refreshes the session's in-memory restart
	// checkpoint every N accepted frames (default 128; the registry's
	// ticker persists it to disk).
	CheckpointEveryFrames int
	// Emit, when non-nil, receives every batch of finalized estimates.
	Emit func(id string, ests []core.Estimate)
	// Fusion, when non-nil, runs a fusion backend (fusion.Config.Backend
	// selects particle filter or ESKF) over every session's finalized
	// estimates; the fused pose is exposed via Session.Pose and the
	// /sessions listing. The config is a template: each session gets its
	// own backend instance with StepSeconds fixed to its slot rate.
	Fusion *fusion.Config
	// ConfidenceFloor counts moving estimates whose alignment confidence
	// falls below this threshold into rim_session_low_confidence_total
	// and the /sessions listing (0 disables the accounting).
	ConfidenceFloor float64
	// Quality, when non-nil alongside Fusion, attaches one estimator-
	// consistency monitor per session: ESKF innovations and particle-filter
	// degeneracy stats flow into per-channel NIS windows, and the session's
	// verdict is exposed via Session.Quality and the /sessions listing.
	Quality *quality.Engine
	// MistunePrefix/MistuneNoiseStd are the quality self-test fault
	// injector: sessions whose id starts with MistunePrefix get zero-mean
	// Gaussian noise (std MistuneNoiseStd, metres / radians per step,
	// deterministic per-session stream) added to their fusion inputs. The
	// filter's noise model no longer matches its inputs, so its NIS leaves
	// the chi-square band — the e2e proof that the monitor detects a
	// mis-tuned estimator. Empty prefix disables injection.
	MistunePrefix   string
	MistuneNoiseStd float64
	// Metrics receives the session-layer counters (nil = no-op bundle).
	Metrics *Metrics
	// Breaker is the daemon-wide circuit breaker fed by session failures
	// (nil = no breaker).
	Breaker *Breaker
	// Flight captures postmortem bundles on quarantine (nil = no-op).
	Flight *trace.Flight
	// Log receives supervisor events (nil = no-op logger).
	Log *slog.Logger
	// Seed seeds the backoff jitter (0 = fixed default seed).
	Seed int64
	// onQuarantine notifies the owning registry that the session retired
	// itself (set by Registry, not callers).
	onQuarantine func(s *Session)
}

func (c Config) withDefaults() Config {
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.HighWater <= 0 || c.HighWater > 1 {
		c.HighWater = 0.75
	}
	if c.LowWater <= 0 || c.LowWater >= c.HighWater {
		c.LowWater = c.HighWater / 3
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 3
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = 2 * time.Second
	}
	if c.HealthyAfter <= 0 {
		c.HealthyAfter = 5 * time.Second
	}
	if c.CheckpointEveryFrames <= 0 {
		c.CheckpointEveryFrames = 128
	}
	if c.Metrics == nil {
		c.Metrics = &Metrics{}
	}
	if c.Log == nil {
		c.Log = obs.NopLogger()
	}
	return c
}

// Session is one device's supervised tracking stream: a bounded frame
// queue in front of a worker goroutine that drives the Stream, wrapped in
// a supervisor that recovers panics, classifies failures, restarts with
// capped exponential backoff, and quarantines the session when restarting
// stops helping.
type Session struct {
	ID   string
	Spec Spec

	cfg  Config
	q    *frameQueue
	rng  *rand.Rand       // backoff jitter; worker-goroutine only
	fus  *fuser           // per-session fusion backend (nil = fusion off)
	qmon *quality.Monitor // per-session consistency monitor (nil = off)
	sm   sessionMetrics   // per-session metric children, resolved once

	mu        sync.Mutex
	state     State
	stream    Stream
	lastCp    *core.StreamCheckpoint // latest known-good restart point
	restarts  int                    // consecutive, since last healthy run
	totalRst  int
	health    core.Health // cached last-read stream health
	estimates int
	estDeg    int       // estimates emitted with the Degraded flag
	lowConf   int       // moving estimates below ConfidenceFloor
	lastEst   time.Time // when the session last emitted estimates
	degraded  bool      // coarser-hop mode engaged
	closing   bool
	woken     bool // wake already closed
	exitTaken bool // registry consumed this session's exit exactly once
	lastErr   error

	done chan struct{} // closed when the supervisor goroutine exits
	wake chan struct{} // interrupts backoff sleeps on close
}

// newSession builds and starts a session. cp, when non-nil, restores the
// stream from a checkpoint.
func newSession(id string, spec Spec, cfg Config, cp *core.StreamCheckpoint) (*Session, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("session: Config.Factory is required")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x52494d // deterministic default
	}
	s := &Session{
		ID:     id,
		Spec:   spec,
		cfg:    cfg,
		q:      newFrameQueue(cfg.Queue),
		rng:    rand.New(rand.NewSource(seed ^ int64(len(id)))),
		sm:     cfg.Metrics.children(id),
		state:  StateAdmitted,
		lastCp: cp,
		done:   make(chan struct{}),
		wake:   make(chan struct{}),
	}
	if cfg.Fusion != nil {
		fc := *cfg.Fusion
		if mon := cfg.Quality.Monitor(id); mon != nil {
			// The per-session backend reports into the per-session monitor:
			// scalar innovations land in per-channel NIS windows, particle
			// stats in the degeneracy gauges.
			s.qmon = mon
			fc.Innovations = func(ch int, nu, sVar float64) {
				mon.Innovation(ch, fusion.ChannelName(ch), nu, sVar)
			}
			fc.PFStats = mon.PFStep
		}
		var noiseStd float64
		if cfg.MistunePrefix != "" && strings.HasPrefix(id, cfg.MistunePrefix) {
			noiseStd = cfg.MistuneNoiseStd
		}
		fus, err := newFuser(fc, spec.Rate, noiseStd, id)
		if err != nil {
			return nil, fmt.Errorf("session %q fusion backend: %w", id, err)
		}
		s.fus = fus
	}
	go s.run()
	return s, nil
}

// Pose returns the latest fused pose (relative to the session's first
// frame) and whether fusion is enabled for this session.
func (s *Session) Pose() (geom.Pose, bool) {
	if s.fus == nil {
		return geom.Pose{}, false
	}
	return s.fus.Pose(), true
}

// QualityInfo is a session's estimator-consistency verdict in the
// /sessions listing.
type QualityInfo struct {
	// State is the monitor verdict: "ok", "warn" or "alert".
	State string `json:"state"`
	// OutsideFrac is the worst per-channel windowed fraction of NIS
	// samples outside the chi-square acceptance band.
	OutsideFrac float64 `json:"outside_frac"`
	// Samples counts innovation samples folded into the monitor.
	Samples uint64 `json:"samples"`
}

// Quality returns the session's estimator-consistency verdict and whether
// a quality monitor is attached.
func (s *Session) Quality() (QualityInfo, bool) {
	if s.qmon == nil {
		return QualityInfo{}, false
	}
	st, frac, n := s.qmon.Summary()
	return QualityInfo{State: st.String(), OutsideFrac: frac, Samples: n}, true
}

// State returns the session's lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Health returns a detached copy of the last stream health observed by the
// worker (safe to serialize concurrently).
func (s *Session) Health() core.Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.health.Clone()
}

// Restarts returns (consecutive, lifetime) supervisor restarts.
func (s *Session) Restarts() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restarts, s.totalRst
}

// Estimates returns how many finalized estimates the session has emitted.
func (s *Session) Estimates() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.estimates
}

// QueueDepth returns the frames currently buffered.
func (s *Session) QueueDepth() int { return s.q.depth() }

// Checkpoint captures the session's durable state from the live stream
// (falling back to the last known-good restart point when the stream is
// mid-restart). Returns nil when there is nothing to checkpoint yet.
func (s *Session) Checkpoint() *Checkpoint {
	s.mu.Lock()
	stream := s.stream
	cp := s.lastCp
	s.mu.Unlock()
	if stream != nil {
		if fresh := stream.Checkpoint(); fresh != nil {
			cp = fresh
			s.mu.Lock()
			s.lastCp = fresh
			s.mu.Unlock()
		}
	}
	if cp == nil {
		return nil
	}
	return &Checkpoint{ID: s.ID, Spec: s.Spec, SavedUnixNs: time.Now().UnixNano(), Stream: cp}
}

// ingest enqueues one frame under the overload policy. The slices become
// queue-owned. Returns an error only for Reject-policy overflow or a
// closed/quarantined session.
func (s *Session) ingest(snap [][][]complex128, missing []bool) error {
	f := frame{snap: snap, missing: missing, enq: time.Now()}
	accepted, evicted := s.q.push(f, s.cfg.Policy != Reject)
	if !accepted {
		s.sm.rejected.Inc()
		if st := s.State(); st == StateQuarantined || st == StateClosed {
			return fmt.Errorf("session %q is %s", s.ID, st)
		}
		return fmt.Errorf("session %q queue full (reject policy)", s.ID)
	}
	s.sm.frames.Inc()
	if evicted {
		s.sm.dropped.Inc()
	}
	if s.cfg.Policy == Degrade {
		s.adjustDegrade()
	}
	return nil
}

// adjustDegrade applies the coarser-hop hysteresis for the Degrade policy:
// queue above HighWater (or the breaker open) → stretch the hop; below
// LowWater with the breaker closed → restore it.
func (s *Session) adjustDegrade() {
	occ := float64(s.q.depth()) / float64(s.q.capacity())
	pressured := occ >= s.cfg.HighWater || s.cfg.Breaker.Degraded()
	relieved := occ <= s.cfg.LowWater && !s.cfg.Breaker.Degraded()

	s.mu.Lock()
	stream := s.stream
	var flip int
	if pressured && !s.degraded {
		s.degraded, flip = true, 2
	} else if relieved && s.degraded {
		s.degraded, flip = false, 1
	}
	s.mu.Unlock()
	if flip == 0 {
		return
	}
	if hs, ok := stream.(hopStretcher); ok && stream != nil {
		hs.SetHopFactor(flip)
	}
	if flip == 2 {
		s.sm.degraded.Inc()
		s.cfg.Log.Info("session degraded to coarser hop", "session", s.ID, "queue_occupancy", occ)
	} else {
		s.cfg.Log.Info("session restored normal hop", "session", s.ID, "queue_occupancy", occ)
	}
}

// close begins a graceful shutdown: the queue stops accepting, the worker
// drains what is buffered, flushes the stream and exits. Done() closes
// when the worker is gone.
func (s *Session) close() {
	s.mu.Lock()
	s.closing = true
	wake := !s.woken
	s.woken = true
	s.mu.Unlock()
	s.q.close()
	if wake {
		close(s.wake)
	}
}

// Done returns a channel closed when the supervisor goroutine has exited.
func (s *Session) Done() <-chan struct{} { return s.done }

// run is the supervisor loop: drive the worker until it exits cleanly, or
// classify its failure, back off, and restart — quarantining once
// MaxRestarts consecutive restarts pass without a healthy run.
func (s *Session) run() {
	defer close(s.done)
	m := s.cfg.Metrics
	for {
		quit, err := s.runOnce()
		if quit {
			s.setState(StateClosed)
			m.Closed.Inc()
			return
		}

		// The worker failed (panic, fatal push error, or flapping
		// analysis). Classify toward restart or quarantine.
		s.mu.Lock()
		s.restarts++
		s.totalRst++
		s.lastErr = err
		restarts := s.restarts
		s.stream = nil // rebuilt from lastCp on the next runOnce
		s.mu.Unlock()
		s.sm.restarts.Inc()
		s.cfg.Breaker.Failure()

		if restarts > s.cfg.MaxRestarts {
			s.quarantine(err)
			return
		}

		s.setState(StateBackoff)
		d := s.backoff(restarts)
		s.cfg.Log.Warn("session restarting after failure",
			"session", s.ID, "err", err, "restart", restarts, "backoff", d)
		select {
		case <-time.After(d):
		case <-s.wake:
			// Closing mid-backoff: run once more to drain + flush.
		}
		if s.State() == StateClosed {
			return
		}
	}
}

// backoff returns the capped exponential wait before restart attempt n
// (1-based) with ±25% jitter.
func (s *Session) backoff(n int) time.Duration {
	d := s.cfg.BackoffMin << uint(n-1)
	if d > s.cfg.BackoffMax || d <= 0 {
		d = s.cfg.BackoffMax
	}
	j := 0.75 + 0.5*s.rng.Float64()
	return time.Duration(float64(d) * j)
}

// quarantine retires a flapping session: postmortem bundle, metrics, queue
// drained so producers stop accumulating frames nobody will pop.
func (s *Session) quarantine(err error) {
	s.setState(StateQuarantined)
	s.sm.quarantined.Inc()
	s.cfg.Metrics.Closed.Inc()
	s.q.close()
	s.q.drain()
	s.cfg.Log.Error("session quarantined: restarts stopped helping",
		"session", s.ID, "err", err, "restarts", s.cfg.MaxRestarts)
	s.cfg.Flight.Offer(trace.ReasonSessionQuarantined, -1, map[string]any{
		"session":  s.ID,
		"restarts": s.cfg.MaxRestarts,
		"error":    fmt.Sprint(err),
		"health":   s.Health(),
	})
	if s.cfg.onQuarantine != nil {
		s.cfg.onQuarantine(s)
	}
}

// takeExit consumes the session's single live-count exit credit; the first
// caller (quarantine hook or registry Close) gets true.
func (s *Session) takeExit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exitTaken {
		return false
	}
	s.exitTaken = true
	return true
}

// runOnce drives one incarnation of the worker: (re)build the stream
// (restoring from the last checkpoint on restarts), then pump frames from
// the queue through it until the queue closes (quit=true) or a failure
// demands supervision (quit=false, err != nil). Panics anywhere inside are
// recovered and classified as failures.
func (s *Session) runOnce() (quit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.cfg.Metrics.Panics.Inc()
			quit, err = false, fmt.Errorf("session %q worker panic: %v", s.ID, r)
		}
	}()

	s.mu.Lock()
	stream := s.stream
	cp := s.lastCp
	closing := s.closing
	s.mu.Unlock()
	if stream == nil {
		if closing && cp == nil {
			return true, nil // closed before ever starting
		}
		stream, err = s.cfg.Factory(s.ID, s.Spec, cp)
		if err != nil {
			return false, fmt.Errorf("session %q stream factory: %w", s.ID, err)
		}
		if cp != nil {
			s.cfg.Metrics.Restores.Inc()
		}
		s.mu.Lock()
		s.stream = stream
		degraded := s.degraded
		s.mu.Unlock()
		if po, ok := stream.(perStreamObserver); ok && s.sm.lag != nil {
			po.SetPerStreamObs(core.PerStreamObs{Lag: s.sm.lag})
		}
		if hs, ok := stream.(hopStretcher); ok && degraded {
			hs.SetHopFactor(2)
		}
	}
	s.setState(StateRunning)

	healthySince := time.Now()
	frames := 0
	for {
		f, ok := s.q.pop()
		if !ok {
			if ests := stream.Flush(); len(ests) > 0 {
				s.recordEstimates(ests)
			}
			s.snapshotHealth(stream)
			return true, nil
		}
		s.sm.queueWait.Observe(time.Since(f.enq).Seconds())

		ctx := context.Background()
		var cancel context.CancelFunc
		if s.cfg.PushDeadline > 0 {
			ctx, cancel = context.WithTimeout(ctx, s.cfg.PushDeadline)
		}
		ests, perr := stream.PushMaskedCtx(ctx, f.snap, f.missing)
		if cancel != nil {
			cancel()
		}
		if len(ests) > 0 {
			s.recordEstimates(ests)
		}
		s.snapshotHealth(stream)

		if perr != nil {
			if !errors.Is(perr, core.ErrAnalysis) {
				// Ingest/shape error: the frame is corrupt beyond the
				// stream's own tolerance. Fatal for this incarnation.
				return false, perr
			}
			// Transient analysis failure: the stream already emitted
			// degraded placeholders and stays usable. Only a flapping
			// streak (the stream cannot recover on its own) escalates to
			// a restart.
			if stream.Health().ConsecutiveFailures >= s.cfg.FailureThreshold {
				return false, fmt.Errorf("session %q flapping: %w", s.ID, perr)
			}
		}

		// A sustained clean run forgives past restarts.
		frames++
		if frames%16 == 0 && time.Since(healthySince) >= s.cfg.HealthyAfter {
			s.mu.Lock()
			hadRestarts := s.restarts > 0
			s.restarts = 0
			s.mu.Unlock()
			if hadRestarts {
				s.cfg.Breaker.Success()
				s.cfg.Log.Info("session healthy again", "session", s.ID)
			}
			healthySince = time.Now()
		}
		// Refresh the in-memory restart point so a failure resumes near
		// the frontier instead of replaying the whole window.
		if frames%s.cfg.CheckpointEveryFrames == 0 {
			if fresh := stream.Checkpoint(); fresh != nil {
				s.mu.Lock()
				s.lastCp = fresh
				s.mu.Unlock()
			}
		}
	}
}

func (s *Session) recordEstimates(ests []core.Estimate) {
	deg, low := 0, 0
	for _, e := range ests {
		if e.Degraded {
			deg++
		}
		if floor := s.cfg.ConfidenceFloor; floor > 0 && e.Moving && e.Confidence < floor {
			low++
		}
	}
	s.mu.Lock()
	s.estimates += len(ests)
	s.estDeg += deg
	s.lowConf += low
	s.lastEst = time.Now()
	s.mu.Unlock()
	s.sm.estimates.Add(uint64(len(ests)))
	if deg > 0 {
		s.sm.estDegraded.Add(uint64(deg))
	}
	if low > 0 {
		s.sm.lowConf.Add(uint64(low))
	}
	if s.fus != nil {
		s.fus.feed(ests)
	}
	if s.cfg.Emit != nil {
		s.cfg.Emit(s.ID, ests)
	}
}

// EstimateStats returns (total, degraded, low-confidence) finalized
// estimate counts and the time the session last emitted (zero when never).
func (s *Session) EstimateStats() (total, degraded, lowConf int, last time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.estimates, s.estDeg, s.lowConf, s.lastEst
}

func (s *Session) snapshotHealth(stream Stream) {
	h := stream.Health()
	s.mu.Lock()
	s.health = h
	s.mu.Unlock()
}

func (s *Session) setState(st State) {
	s.mu.Lock()
	if s.state != StateClosed && s.state != StateQuarantined {
		s.state = st
	}
	s.mu.Unlock()
}
