// Package server is the rimserved daemon as a library. It accepts CSI
// frame streams over TCP (the internal/session wire protocol), runs one
// supervised core.Streamer per session behind a bounded queue with an
// explicit overload policy, sheds load past its admission watermark and
// checkpoints every session for crash-restart. Its debug endpoint serves
// /metrics, /healthz, /sessions, /slo (fleet and per-session error
// budgets; a page captures a postmortem bundle) and /quality (estimator
// consistency; an alert captures a bundle and a CPU profile), which
// rimtop renders.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/experiments"
	"rim/internal/fusion"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/slo"
	"rim/internal/obs/trace"
	"rim/internal/session"
	"rim/internal/trrs"
)

// Config holds one field per rimserved flag; each flag's usage text
// documents its field.
type Config struct {
	Listen, DebugAddr                                string
	Shards, MaxSessions, Queue                       int
	Policy, Kernel, Precision                        string
	HopDeadline                                      time.Duration
	Span, Hop, Window                                float64
	MaxRestarts, FailureThreshold, MetricCardinality int
	CheckpointDir, PostmortemOut, Fusion             string
	CheckpointEvery, SLOWindow, SLOInterval          time.Duration
	ConfidenceFloor, SLOLagLE, SLOLagTarget          float64
	SLODegradedTarget, SLOSessionDegradedTarget      float64
	SLOConfTarget, SLOQualityTarget                  float64
	Quality                                          bool
	MistuneSessionPrefix                             string
	MistuneNoise                                     float64
}

// DefaultConfig returns rimserved's flag defaults.
func DefaultConfig() Config {
	return Config{
		Listen: ":7101", DebugAddr: ":7171", Shards: 8, Queue: 64, Policy: "degrade",
		Span: 3, Hop: 0.5, Window: 0.3, MaxRestarts: 3, CheckpointEvery: 5 * time.Second,
		Fusion: "off", SLOWindow: 5 * time.Minute, SLOInterval: 5 * time.Second,
		SLOLagLE: 1.0, SLOLagTarget: 0.99, SLODegradedTarget: 0.95, Quality: true, MistuneNoise: 0.01,
	}
}

// wrapStream, when non-nil, wraps every session stream New's daemons
// build, restored ones included. It is nil outside this package's tests,
// which inject faults through it.
var wrapStream func(id string, st session.Stream) session.Stream

// Server is a running daemon.
type Server struct {
	cfg         Config
	log         *slog.Logger
	registry    *session.Registry
	metrics     *session.Metrics
	slo         *slo.Engine
	profiler    *obs.CPUProfiler
	stopRuntime func()
	ln          net.Listener
	debug       *http.Server
	debugAddr   string

	stop   chan struct{} // closed by Close: ends the SLO loop
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// arrayForAnts maps a session's antenna count to a receive geometry. The
// wire protocol carries only the shape, so the daemon picks the canonical
// array of that size.
func arrayForAnts(n int) (*array.Array, error) {
	switch n {
	case 2:
		return array.NewPairArray(experiments.Spacing), nil
	case 3:
		return array.NewLinear3(experiments.Spacing), nil
	case 6:
		return array.NewHexagonal(experiments.Spacing), nil
	}
	return nil, fmt.Errorf("no canonical array with %d antennas (want 2, 3 or 6)", n)
}

// New assembles the daemon logging to log, binds its ingest (and, unless
// cfg.DebugAddr is empty, debug) listener, restores the sessions
// checkpointed under cfg.CheckpointDir and starts serving. Close stops it.
func New(cfg Config, log *slog.Logger) (_ *Server, err error) {
	policy, ok := session.ParsePolicy(cfg.Policy)
	if !ok {
		return nil, fmt.Errorf("unknown -policy %s", cfg.Policy)
	}
	kernel, err := trrs.ParseKernel(cfg.Kernel)
	if err != nil {
		return nil, err
	}
	precision, err := trrs.ParsePrecision(cfg.Precision)
	if err != nil {
		return nil, err
	}
	reg, rec := obs.NewRegistry(), trace.NewRecorder(0)
	var fusionCfg *fusion.Config
	if cfg.Fusion != "off" {
		backend, ok := fusion.ParseBackend(cfg.Fusion)
		if !ok {
			return nil, fmt.Errorf("unknown -fusion backend %s", cfg.Fusion)
		}
		fc := fusion.DefaultConfig(1)
		// Per-session backends share the process registry/recorder so
		// rim_fusion_* counters and KindFusionStep events cover the fleet.
		fc.Backend, fc.Obs, fc.Trace = backend, reg, rec
		fusionCfg = &fc
	}

	s := &Server{cfg: cfg, log: log, stop: make(chan struct{}), conns: map[net.Conn]struct{}{}}
	// Only sessions and the SLO loop capture bundles, and both start once
	// s.registry is set.
	health := func() any { return s.registry.Health() }
	// newFlight builds a flight recorder capturing only reason ("" = every
	// reason). Quarantines, SLO pages and quality alerts each get their
	// own: the shared one rate-limits captures, and a stream of routine
	// degraded-estimate bundles must not starve the one that explains why
	// a session died or an objective paged.
	newFlight := func(reason string) *trace.Flight {
		fc := trace.FlightConfig{Recorder: rec, Registry: reg, Dir: cfg.PostmortemOut, Health: health, Log: log}
		if reason != "" {
			fc.Trigger = func(r string) bool { return r == reason }
		}
		return trace.NewFlight(fc)
	}
	flight := newFlight("")
	// An SLO page or a quality alert drops a rate-limited CPU profile next
	// to its postmortem bundle (nil without a bundle directory).
	s.profiler = obs.NewCPUProfiler(obs.CPUProfilerConfig{Dir: cfg.PostmortemOut, Log: log})

	// Estimator-quality engine: one consistency monitor per session plus
	// the fleet-wide TRRS signal telemetry and confidence calibration.
	var qualityEng *quality.Engine
	if cfg.Quality {
		qualityEng = quality.New(quality.Config{
			Obs:    reg,
			Trace:  rec,
			Flight: newFlight(trace.ReasonQualityBreach),
			OnTransition: func(entity string, from, to quality.State, channel string, frac float64) {
				log.Warn("estimator quality transition", "session", entity,
					"from", from.String(), "to", to.String(),
					"channel", channel, "outside_frac", frac)
				if to == quality.StateAlert {
					s.profiler.Offer(trace.ReasonQualityBreach)
				}
			},
		})
	}

	factory, err := session.NewCoreFactory(session.CoreFactoryConfig{
		Template: core.StreamConfig{
			Core: core.Config{
				WindowSeconds: cfg.Window,
				Kernel:        kernel,
				Precision:     precision,
				Obs:           reg,
				Trace:         rec,
				Flight:        flight,
				Quality:       qualityEng,
				Logger:        log,
			},
			SpanSeconds: cfg.Span,
			HopSeconds:  cfg.Hop,
			HopDeadline: cfg.HopDeadline,
		},
		ArrayFor: arrayForAnts,
	})
	if err != nil {
		return nil, err
	}
	if hook := wrapStream; hook != nil {
		inner := factory
		factory = func(id string, spec session.Spec, cp *core.StreamCheckpoint) (session.Stream, error) {
			st, err := inner(id, spec, cp)
			if err != nil {
				return nil, err
			}
			return hook(id, st), nil
		}
	}
	if s.ln, err = net.Listen("tcp", cfg.Listen); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.ln.Close()
		}
	}()

	s.metrics = session.NewMetricsCap(reg, cfg.MetricCardinality)
	s.registry, err = session.NewRegistry(session.RegistryConfig{
		Shards:          cfg.Shards,
		MaxSessions:     cfg.MaxSessions,
		Breaker:         session.NewBreaker(session.BreakerConfig{}),
		CheckpointDir:   cfg.CheckpointDir,
		CheckpointEvery: cfg.CheckpointEvery,
		Log:             log,
		Session: session.Config{
			Factory:          factory,
			Queue:            cfg.Queue,
			Policy:           policy,
			MaxRestarts:      cfg.MaxRestarts,
			FailureThreshold: cfg.FailureThreshold,
			Metrics:          s.metrics,
			Flight:           newFlight(trace.ReasonSessionQuarantined),
			Log:              log,
			Fusion:           fusionCfg,
			ConfidenceFloor:  cfg.ConfidenceFloor,
			Quality:          qualityEng,
			MistunePrefix:    cfg.MistuneSessionPrefix,
			MistuneNoiseStd:  cfg.MistuneNoise,
		},
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.registry.Shutdown()
		}
	}()

	// SLO engine: fleet objectives over the process-wide signals, plus a
	// per-session lag/degraded pair synced against the live fleet. A page
	// (fast burn on both windows) captures its own postmortem bundle so
	// the breach arrives with the trace that explains it.
	sloFlight := newFlight(trace.ReasonSLOBreach)
	s.slo = slo.New(slo.Config{
		Obs: reg,
		OnPage: func(o slo.Objective, st slo.Status) {
			log.Warn("SLO paging", "slo", o.Name, "entity", o.Entity,
				"burn_short", st.BurnShort, "burn_long", st.BurnLong,
				"budget_remaining", st.BudgetRemaining)
			sloFlight.Offer(trace.ReasonSLOBreach, -1, st)
			s.profiler.Offer(trace.ReasonSLOBreach)
		},
	})
	s.registerFleetSLOs(reg, qualityEng)

	if cfg.DebugAddr != "" {
		s.debug, s.debugAddr, err = obs.StartDebugServer(cfg.DebugAddr, reg, health,
			obs.Route{Pattern: "/debug/rimtrace", Handler: trace.Handler(rec)},
			obs.Route{Pattern: "/debug/postmortem", Handler: flight.Handler()},
			obs.Route{Pattern: "/sessions", Handler: s.registry.InfosHandler()},
			obs.Route{Pattern: "/slo", Handler: s.slo.Handler()},
			obs.Route{Pattern: "/quality", Handler: qualityEng.Handler()},
		)
		if err != nil {
			return nil, err
		}
		log.Info("debug server up", "addr", "http://"+s.debugAddr)
	}
	if n, _ := s.registry.Restore(); n > 0 {
		log.Info("sessions restored from checkpoints", "count", n, "dir", cfg.CheckpointDir)
	}

	// Go runtime telemetry: GC pauses, heap, goroutines and scheduling
	// latency as rim_runtime_* series for rimtop's header and /metrics.
	s.stopRuntime = obs.NewRuntimeSampler(reg).Start(10 * time.Second)
	s.wg.Add(2)
	go s.sloLoop()
	go s.accept()
	log.Info("rimserved listening", "addr", s.ln.Addr().String(),
		"policy", policy.String(), "max_sessions", cfg.MaxSessions, "shards", cfg.Shards)
	return s, nil
}

// Addr returns the bound ingest address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// DebugAddr returns the bound debug HTTP address ("" when disabled).
func (s *Server) DebugAddr() string { return s.debugAddr }

// Close stops accepting, hangs up every producer connection, drains every
// session, persists final checkpoints and stops the debug server and any
// CPU profile in flight. It returns once the accept loop, every
// connection handler and the SLO loop have exited.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	close(s.stop)
	s.ln.Close()
	s.wg.Wait()
	s.registry.Shutdown()
	s.stopRuntime()
	if s.debug != nil {
		s.debug.Close()
	}
	s.profiler.Close()
	s.log.Info("shutdown complete")
}

// accept runs the ingest listener until Close closes it.
func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// registerFleetSLOs installs the process-wide objectives: ingest-to-emit
// lag p-quantile, degraded-estimate share, (when a confidence floor is
// configured) the low-confidence share and (with the quality engine on)
// the in-band share of consistency samples.
func (s *Server) registerFleetSLOs(reg *obs.Registry, qualityEng *quality.Engine) {
	cfg, m := s.cfg, s.metrics
	fleet := func(name string, target float64, src slo.Source) {
		s.slo.Register(slo.Objective{Name: "fleet/" + name, Entity: "fleet", Target: target, Window: cfg.SLOWindow, Source: src})
	}
	if cfg.SLOLagLE > 0 {
		// Registering before any streamer exists is fine: Timer returns
		// the same histogram the stream layer later resolves by name.
		lagH := reg.Timer("rim_stream_lag_seconds", "ingest-to-emit latency of the newest slot finalized per hop")
		fleet("lag", cfg.SLOLagTarget, slo.LatencySource(lagH, cfg.SLOLagLE))
	}
	if cfg.SLODegradedTarget > 0 {
		fleet("degraded", cfg.SLODegradedTarget, familyRatioSource(m.EstDegraded, m.Estimates))
	}
	if cfg.SLOConfTarget > 0 {
		fleet("confidence", cfg.SLOConfTarget, familyRatioSource(m.LowConf, m.Estimates))
	}
	if cfg.SLOQualityTarget > 0 && qualityEng != nil {
		fleet("quality", cfg.SLOQualityTarget, func() slo.Sample {
			samples, outside := qualityEng.Totals()
			return slo.Sample{Good: float64(samples - outside), Total: float64(samples)}
		})
	}
}

// familyRatioSource reads cumulative (good, total) off two counter
// families' fleet totals (evictions fold into "other", so totals are
// conserved across any cardinality churn).
func familyRatioSource(bad, total *obs.CounterFamily) slo.Source {
	return func() slo.Sample {
		t := float64(total.Total())
		return slo.Sample{Good: t - float64(bad.Total()), Total: t}
	}
}

// sessionRatioSource is familyRatioSource scoped to one session's
// children. Get (never With) so a closed session cannot resurrect its
// labeled series; a missing child reads as "no traffic", which holds the
// objective at ok until the sync loop unregisters it.
func sessionRatioSource(bad, total *obs.CounterFamily, id string) slo.Source {
	return func() slo.Sample {
		tc, ok := total.Get(id)
		if !ok {
			return slo.Sample{}
		}
		t := float64(tc.Value())
		bc, _ := bad.Get(id) // a nil child reads 0
		return slo.Sample{Good: t - float64(bc.Value()), Total: t}
	}
}

// sessionLagSource reads one session's lag histogram child.
func sessionLagSource(lag *obs.HistogramFamily, id string, le float64) slo.Source {
	return func() slo.Sample {
		h, _ := lag.Get(id) // a nil child reads 0
		return slo.Sample{Good: float64(h.CountAtOrBelow(le)), Total: float64(h.Count())}
	}
}

// sloLoop keeps per-session objectives in step with the live fleet and
// ticks the engine. Objectives are named session/<id>/{lag,degraded} with
// Entity = the session id, which is how rimtop joins budgets to rows.
func (s *Server) sloLoop() {
	defer s.wg.Done()
	cfg, m := s.cfg, s.metrics
	degTarget := cmp.Or(cfg.SLOSessionDegradedTarget, cfg.SLODegradedTarget)
	tick := time.NewTicker(cfg.SLOInterval)
	defer tick.Stop()
	tracked := map[string]bool{}
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		live := map[string]bool{}
		for _, sess := range s.registry.Sessions() {
			id := sess.ID
			live[id] = true
			if tracked[id] {
				continue
			}
			tracked[id] = true
			if cfg.SLOLagLE > 0 {
				s.slo.Register(slo.Objective{
					Name: "session/" + id + "/lag", Entity: id, Target: cfg.SLOLagTarget, Window: cfg.SLOWindow,
					Source: sessionLagSource(m.Lag, id, cfg.SLOLagLE),
				})
			}
			if degTarget > 0 {
				s.slo.Register(slo.Objective{
					Name: "session/" + id + "/degraded", Entity: id, Target: degTarget, Window: cfg.SLOWindow,
					Source: sessionRatioSource(m.EstDegraded, m.Estimates, id),
				})
			}
		}
		for id := range tracked {
			if live[id] {
				continue
			}
			delete(tracked, id)
			s.slo.Unregister("session/" + id + "/lag")
			s.slo.Unregister("session/" + id + "/degraded")
		}
		s.slo.Tick(time.Now())
	}
}

// serveConn pumps one producer connection: preamble check, then a message
// loop routing opens/frames/closes into the registry. A malformed message
// ends the connection (the framing cannot resync); session errors (shed,
// rejected frame) are logged and the connection continues — the producer's
// other sessions must not suffer.
func (s *Server) serveConn(conn net.Conn) {
	peer := conn.RemoteAddr().String()
	if err := session.ReadWirePreamble(conn); err != nil {
		s.log.Warn("wire preamble rejected", "peer", peer, "err", err)
		return
	}
	wr := session.NewWireReader(conn)
	shedLogged := map[string]bool{}
	for {
		msg, err := wr.Read()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
				s.log.Info("connection closed", "peer", peer, "err", err)
			}
			return
		}
		switch msg.Type {
		case session.MsgOpen:
			if _, err := s.registry.Open(msg.ID, msg.Spec); err != nil {
				if !shedLogged[msg.ID] {
					s.log.Warn("session open refused", "peer", peer, "session", msg.ID, "err", err)
					shedLogged[msg.ID] = true
				}
			}
		case session.MsgFrame:
			if err := s.registry.Ingest(msg.ID, msg.Snap, msg.Missing); err != nil {
				if errors.Is(err, session.ErrUnknownSession) && !shedLogged[msg.ID] {
					s.log.Warn("frame for unknown session", "peer", peer, "session", msg.ID)
					shedLogged[msg.ID] = true
				}
			}
		case session.MsgClose:
			if err := s.registry.Close(msg.ID); err != nil && !errors.Is(err, session.ErrUnknownSession) {
				s.log.Warn("session close failed", "session", msg.ID, "err", err)
			}
		}
	}
}
