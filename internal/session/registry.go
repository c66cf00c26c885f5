package session

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rim/internal/core"
	"rim/internal/geom"
	"rim/internal/obs"
)

// ErrUnknownSession reports ingest for a session the registry does not
// hold (never opened, already closed, or shed at admission).
var ErrUnknownSession = fmt.Errorf("session: unknown session")

// ErrShed reports an open refused by admission control: the registry is at
// its session watermark or the circuit breaker has the daemon degraded.
var ErrShed = fmt.Errorf("session: shed by admission control")

// RegistryConfig parameterizes a Registry.
type RegistryConfig struct {
	// Shards stripes the session map to keep ingest lock contention off
	// the daemon's hot path (default 8).
	Shards int
	// MaxSessions is the admission watermark: opens beyond it are shed
	// (0 = unlimited).
	MaxSessions int
	// Session is the per-session configuration template.
	Session Config
	// Breaker is the daemon-wide circuit breaker (nil = none). It is also
	// handed to every session.
	Breaker *Breaker
	// CheckpointDir, when non-empty, persists session checkpoints for
	// crash-restart; CheckpointEvery is the persistence cadence
	// (default 5s).
	CheckpointDir   string
	CheckpointEvery time.Duration
	// Log receives registry events (nil = no-op).
	Log *slog.Logger
}

// shard is one stripe of the session map.
type shard struct {
	mu       sync.Mutex
	sessions map[string]*Session
}

// Registry owns the daemon's sessions: admission control in front, a
// striped-shard map in the middle, supervised sessions underneath, and a
// checkpoint ticker persisting restart state. All methods are
// goroutine-safe.
type Registry struct {
	cfg     RegistryConfig
	m       *Metrics
	breaker *Breaker
	log     *slog.Logger
	shards  []*shard

	live   atomic.Int64 // admitted/running/backoff sessions
	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewRegistry builds a registry and starts its checkpoint ticker (when a
// checkpoint dir is configured).
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if cfg.Session.Factory == nil {
		return nil, fmt.Errorf("session: RegistryConfig.Session.Factory is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 5 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	cfg.Session = cfg.Session.withDefaults()
	if cfg.Breaker != nil && cfg.Session.Breaker == nil {
		cfg.Session.Breaker = cfg.Breaker
	}
	r := &Registry{
		cfg:     cfg,
		m:       cfg.Session.Metrics,
		breaker: cfg.Breaker,
		log:     cfg.Log,
		shards:  make([]*shard, cfg.Shards),
		stop:    make(chan struct{}),
	}
	if r.breaker != nil {
		r.breaker.SetOnChange(func(s BreakerState) {
			r.m.BreakerState.Set(float64(s))
			r.log.Warn("circuit breaker state change", "state", s.String())
		})
	}
	r.cfg.Session.onQuarantine = func(s *Session) {
		if s.takeExit() {
			r.live.Add(-1)
			r.m.Active.Set(float64(r.live.Load()))
		}
	}
	for i := range r.shards {
		r.shards[i] = &shard{sessions: make(map[string]*Session)}
	}
	// The ticker always runs: it refreshes the fleet and per-shard gauges
	// even when checkpointing is off (CheckpointAll no-ops without a dir).
	r.wg.Add(1)
	go r.checkpointLoop()
	return r, nil
}

// shardIndex maps a session ID to its stripe index.
func (r *Registry) shardIndex(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(r.shards)))
}

// shardFor maps a session ID to its stripe.
func (r *Registry) shardFor(id string) *shard { return r.shards[r.shardIndex(id)] }

// Open admits a new session (idempotent: an existing live session is
// returned as-is). Opens are shed — ErrShed — past the MaxSessions
// watermark or while the circuit breaker has the daemon degraded.
func (r *Registry) Open(id string, spec Spec) (*Session, error) {
	return r.open(id, spec, nil)
}

func (r *Registry) open(id string, spec Spec, cp *core.StreamCheckpoint) (*Session, error) {
	if r.closed.Load() {
		return nil, fmt.Errorf("session: registry shut down")
	}
	switch id {
	case "":
		return nil, fmt.Errorf("session: empty session id")
	case obs.OverflowLabel:
		// The per-session families render evicted and closed sessions
		// under this label; a live session by that name would share it.
		return nil, fmt.Errorf("session: session id %q is reserved for the metrics' overflow series", id)
	}
	si := r.shardIndex(id)
	sh := r.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.sessions[id]; ok {
		return s, nil
	}
	// Admission control: shed rather than sink under overload, and shed
	// everything new while the breaker says the daemon itself is failing.
	if r.breaker.Degraded() {
		r.m.Shed.With("breaker", strconv.Itoa(si)).Inc()
		return nil, fmt.Errorf("%w: circuit breaker open", ErrShed)
	}
	if max := r.cfg.MaxSessions; max > 0 && int(r.live.Load()) >= max {
		r.m.Shed.With("watermark", strconv.Itoa(si)).Inc()
		return nil, fmt.Errorf("%w: %d sessions at watermark %d", ErrShed, r.live.Load(), max)
	}
	s, err := newSession(id, spec, r.cfg.Session, cp)
	if err != nil {
		return nil, err
	}
	sh.sessions[id] = s
	r.live.Add(1)
	r.m.Opened.Inc()
	r.m.Active.Set(float64(r.live.Load()))
	if cp != nil {
		r.log.Info("session restored", "session", id)
	}
	return s, nil
}

// Get returns the live session for id, or nil.
func (r *Registry) Get(id string) *Session {
	sh := r.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions[id]
}

// Ingest routes one frame to its session's queue under the overload
// policy. The slices become session-owned.
func (r *Registry) Ingest(id string, snap [][][]complex128, missing []bool) error {
	s := r.Get(id)
	if s == nil {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	return s.ingest(snap, missing)
}

// Close gracefully ends a session: the queue drains, the stream flushes,
// and — the walk being over — its checkpoint file is removed.
func (r *Registry) Close(id string) error {
	sh := r.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	s.close()
	<-s.Done()
	if s.takeExit() {
		r.live.Add(-1)
		r.m.Active.Set(float64(r.live.Load()))
	}
	if r.cfg.CheckpointDir != "" {
		if err := RemoveCheckpoint(r.cfg.CheckpointDir, id); err != nil {
			r.log.Warn("checkpoint removal failed", "session", id, "err", err)
		}
	}
	// The walk is over: fold the session's labeled children into the
	// overflow child so live cardinality tracks the live fleet.
	r.m.forgetSession(id)
	// Retire the session's consistency monitor the same way — quality
	// state is per-incarnation, not per-id.
	r.cfg.Session.Quality.Forget(id)
	return nil
}

// Restore reloads every checkpoint under the configured dir into live
// sessions — the daemon's crash-restart path. Corrupt checkpoints are
// skipped and reported; they never block the healthy rest.
func (r *Registry) Restore() (int, []error) {
	if r.cfg.CheckpointDir == "" {
		return 0, nil
	}
	cps, errs := LoadCheckpointDir(r.cfg.CheckpointDir)
	n := 0
	for _, cp := range cps {
		if _, err := r.open(cp.ID, cp.Spec, cp.Stream); err != nil {
			errs = append(errs, fmt.Errorf("restore %q: %w", cp.ID, err))
			continue
		}
		r.m.Restores.Inc()
		n++
	}
	for _, err := range errs {
		r.log.Warn("checkpoint restore problem", "err", err)
	}
	return n, errs
}

// CheckpointAll persists every live session's checkpoint to the configured
// dir, returning how many were written.
func (r *Registry) CheckpointAll() int {
	if r.cfg.CheckpointDir == "" {
		return 0
	}
	n := 0
	for _, s := range r.Sessions() {
		st := s.State()
		if st == StateClosed || st == StateQuarantined {
			continue
		}
		cp := s.Checkpoint()
		if cp == nil {
			continue
		}
		if _, err := SaveCheckpoint(r.cfg.CheckpointDir, cp); err != nil {
			r.m.CheckpointErrs.Inc()
			r.log.Warn("checkpoint write failed", "session", s.ID, "err", err)
			continue
		}
		r.m.Checkpoints.Inc()
		n++
	}
	return n
}

// checkpointLoop is the persistence ticker, also refreshing the aggregate
// queue-depth gauge.
func (r *Registry) checkpointLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.CheckpointAll()
			r.updateGauges()
		}
	}
}

// updateGauges refreshes the registry-level gauges, including the
// per-shard occupancy families rimtop uses to spot skewed stripes.
func (r *Registry) updateGauges() {
	depth := 0
	for i, sh := range r.shards {
		shardDepth, shardSessions := 0, 0
		sh.mu.Lock()
		for _, s := range sh.sessions {
			shardDepth += s.QueueDepth()
			shardSessions++
		}
		sh.mu.Unlock()
		lbl := strconv.Itoa(i)
		r.m.ShardDepth.With(lbl).Set(float64(shardDepth))
		r.m.ShardSessions.With(lbl).Set(float64(shardSessions))
		depth += shardDepth
	}
	r.m.QueueDepth.Set(float64(depth))
	r.m.Active.Set(float64(r.live.Load()))
	if r.breaker != nil {
		r.m.BreakerState.Set(float64(r.breaker.State()))
	}
}

// Sessions returns the current sessions, ID-sorted.
func (r *Registry) Sessions() []*Session {
	var out []*Session
	for _, sh := range r.shards {
		sh.mu.Lock()
		for _, s := range sh.sessions {
			out = append(out, s)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Shutdown gracefully closes every session (draining queues and flushing
// streams), persists final checkpoints so a restart can resume, and stops
// the ticker. Safe to call once.
func (r *Registry) Shutdown() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	close(r.stop)
	sessions := r.Sessions()
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			s.close()
			<-s.Done()
		}(s)
	}
	wg.Wait()
	// Persist final state for crash-style resume (kill -9 loses at most
	// one checkpoint interval; graceful shutdown loses nothing).
	for _, s := range sessions {
		if r.cfg.CheckpointDir == "" {
			break
		}
		if s.State() == StateQuarantined {
			continue
		}
		if cp := s.Checkpoint(); cp != nil {
			if _, err := SaveCheckpoint(r.cfg.CheckpointDir, cp); err != nil {
				r.m.CheckpointErrs.Inc()
				r.log.Warn("final checkpoint failed", "session", s.ID, "err", err)
			} else {
				r.m.Checkpoints.Inc()
			}
		}
	}
	for _, sh := range r.shards {
		sh.mu.Lock()
		sh.sessions = make(map[string]*Session)
		sh.mu.Unlock()
	}
	r.wg.Wait()
}

// DaemonHealth is the registry's /healthz surface.
type DaemonHealth struct {
	Sessions    int            `json:"sessions"`
	ByState     map[string]int `json:"by_state,omitempty"`
	Breaker     string         `json:"breaker"`
	Degraded    bool           `json:"degraded"`
	MaxSessions int            `json:"max_sessions,omitempty"`
	QueueDepth  int            `json:"queue_depth"`
}

// Health assembles the daemon-level health snapshot.
func (r *Registry) Health() DaemonHealth {
	h := DaemonHealth{
		ByState:     make(map[string]int),
		Breaker:     r.breaker.State().String(),
		Degraded:    r.breaker.Degraded(),
		MaxSessions: r.cfg.MaxSessions,
	}
	for _, s := range r.Sessions() {
		h.Sessions++
		h.ByState[s.State().String()]++
		h.QueueDepth += s.QueueDepth()
	}
	return h
}

// SessionInfo is one session's row in the /sessions listing.
type SessionInfo struct {
	ID         string      `json:"id"`
	State      State       `json:"state"`
	QueueDepth int         `json:"queue_depth"`
	Restarts   int         `json:"restarts_total"`
	Estimates  int         `json:"estimates"`
	Health     core.Health `json:"health"`
	// EstimatesDegraded / LowConfidence attribute estimate quality per
	// session: degraded-flagged emissions and moving estimates below the
	// configured confidence floor.
	EstimatesDegraded int `json:"estimates_degraded"`
	LowConfidence     int `json:"low_confidence,omitempty"`
	// LastEstimateAgeSeconds is how long ago the session last emitted
	// estimates (-1 when it never has) — the staleness signal rimtop
	// sorts on.
	LastEstimateAgeSeconds float64 `json:"last_estimate_age_seconds"`
	// Pose is the session's latest fused pose (present only when the
	// registry runs with a fusion backend configured).
	Pose *geom.Pose `json:"pose,omitempty"`
	// Quality is the session's estimator-consistency verdict (present only
	// when a quality engine is configured alongside fusion).
	Quality *QualityInfo `json:"quality,omitempty"`
}

// Infos returns the /sessions listing.
func (r *Registry) Infos() []SessionInfo {
	sessions := r.Sessions()
	now := time.Now()
	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		_, total := s.Restarts()
		ests, deg, low, last := s.EstimateStats()
		info := SessionInfo{
			ID:                     s.ID,
			State:                  s.State(),
			QueueDepth:             s.QueueDepth(),
			Restarts:               total,
			Estimates:              ests,
			Health:                 s.Health(),
			EstimatesDegraded:      deg,
			LowConfidence:          low,
			LastEstimateAgeSeconds: -1,
		}
		if !last.IsZero() {
			info.LastEstimateAgeSeconds = now.Sub(last).Seconds()
		}
		if pose, ok := s.Pose(); ok {
			p := pose
			info.Pose = &p
		}
		if q, ok := s.Quality(); ok {
			info.Quality = &q
		}
		out = append(out, info)
	}
	return out
}

// InfosHandler serves the /sessions JSON listing.
func (r *Registry) InfosHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.Infos()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
