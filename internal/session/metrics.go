// Package session is the multi-session substrate of the rimserved daemon:
// a striped-shard registry of supervised tracking sessions, each owning a
// core.Streamer behind a bounded frame queue with an explicit overload
// policy. Sessions that panic or flap are restarted with capped
// exponential backoff and quarantined when restarts stop helping; a global
// circuit breaker sheds new sessions when the daemon itself is unhealthy;
// periodic checkpoints make a daemon kill recoverable.
package session

import "rim/internal/obs"

// Metrics bundles the session layer's metric handles, resolved once so the
// per-frame path never touches the registry map. Fleet-attributable
// signals are labeled families (per session, per shard, per shed reason);
// the rest stay plain process-global handles. Every handle is nil-safe
// (obs no-ops on nil receivers and nil families hand out nil children), so
// a zero Metrics disables the whole surface.
type Metrics struct {
	Active *obs.Gauge   // rim_sessions_active
	Opened *obs.Counter // rim_sessions_opened_total
	Closed *obs.Counter // rim_sessions_closed_total
	Panics *obs.Counter // rim_session_panics_total

	// Shed attributes refused opens by {reason, shard}: reason is
	// "breaker" or "watermark".
	Shed *obs.CounterFamily // rim_shed_total{reason,shard}

	// Per-session families. Children are resolved once per session (see
	// sessionMetrics) and folded into the "other" overflow child when the
	// session closes or the cardinality cap evicts them.
	Restarts    *obs.CounterFamily   // rim_session_restarts_total{session}
	Quarantined *obs.CounterFamily   // rim_session_quarantined_total{session}
	Frames      *obs.CounterFamily   // rim_session_frames_total{session}
	Dropped     *obs.CounterFamily   // rim_session_frames_dropped_total{session}
	Rejected    *obs.CounterFamily   // rim_session_frames_rejected_total{session}
	Degraded    *obs.CounterFamily   // rim_session_degrade_transitions_total{session}
	QueueWait   *obs.HistogramFamily // rim_session_queue_wait_seconds{session}
	Lag         *obs.HistogramFamily // rim_session_lag_seconds{session}
	Estimates   *obs.CounterFamily   // rim_session_estimates_total{session}
	EstDegraded *obs.CounterFamily   // rim_session_estimates_degraded_total{session}
	LowConf     *obs.CounterFamily   // rim_session_low_confidence_total{session}

	// Per-shard occupancy gauges, refreshed by the registry ticker.
	ShardDepth    *obs.GaugeFamily // rim_shard_queue_depth{shard}
	ShardSessions *obs.GaugeFamily // rim_shard_sessions{shard}

	QueueDepth     *obs.Gauge   // rim_session_queue_depth (fleet aggregate)
	BreakerState   *obs.Gauge   // rim_breaker_state
	Checkpoints    *obs.Counter // rim_checkpoints_total
	CheckpointErrs *obs.Counter // rim_checkpoint_errors_total
	Restores       *obs.Counter // rim_session_restores_total
}

// NewMetricsCap registers the session-layer metrics on reg (nil reg yields
// a fully no-op bundle) with a per-family cardinality cap: at most
// maxChildren sessions hold live labeled children at once; colder sessions
// fold into the reserved {session="other"} child (counts are conserved).
// 0 selects obs.DefMaxChildren.
func NewMetricsCap(reg *obs.Registry, maxChildren int) *Metrics {
	bySession := obs.FamilyOpts{Labels: []string{"session"}, MaxChildren: maxChildren}
	byShard := obs.FamilyOpts{Labels: []string{"shard"}, MaxChildren: maxChildren}
	return &Metrics{
		Active: reg.Gauge("rim_sessions_active", "sessions currently admitted or running"),
		Opened: reg.Counter("rim_sessions_opened_total", "sessions admitted by the registry"),
		Closed: reg.Counter("rim_sessions_closed_total", "sessions closed (graceful or quarantine)"),
		Panics: reg.Counter("rim_session_panics_total", "panics recovered inside session workers"),

		Shed: reg.CounterFamily("rim_shed_total",
			"session opens shed by admission control or the circuit breaker",
			obs.FamilyOpts{Labels: []string{"reason", "shard"}, MaxChildren: maxChildren}),

		Restarts: reg.CounterFamily("rim_session_restarts_total",
			"supervisor restarts of failed sessions", bySession),
		Quarantined: reg.CounterFamily("rim_session_quarantined_total",
			"sessions quarantined after restarts stopped helping", bySession),
		Frames: reg.CounterFamily("rim_session_frames_total",
			"frames accepted into session queues", bySession),
		Dropped: reg.CounterFamily("rim_session_frames_dropped_total",
			"frames dropped from the front of full queues (drop-oldest)", bySession),
		Rejected: reg.CounterFamily("rim_session_frames_rejected_total",
			"frames rejected at full queues (reject policy)", bySession),
		Degraded: reg.CounterFamily("rim_session_degrade_transitions_total",
			"queue-pressure transitions into coarser-hop degraded mode", bySession),
		QueueWait: reg.HistogramFamily("rim_session_queue_wait_seconds",
			"time frames spend queued before the worker picks them up", bySession),
		Lag: reg.HistogramFamily("rim_session_lag_seconds",
			"per-session ingest-to-emit latency of the newest slot finalized per hop", bySession),
		Estimates: reg.CounterFamily("rim_session_estimates_total",
			"finalized estimates emitted per session", bySession),
		EstDegraded: reg.CounterFamily("rim_session_estimates_degraded_total",
			"finalized estimates emitted with the Degraded flag per session", bySession),
		LowConf: reg.CounterFamily("rim_session_low_confidence_total",
			"moving estimates below the configured confidence floor per session", bySession),

		ShardDepth: reg.GaugeFamily("rim_shard_queue_depth",
			"frames buffered across one shard's session queues", byShard),
		ShardSessions: reg.GaugeFamily("rim_shard_sessions",
			"sessions resident in one shard", byShard),

		QueueDepth:     reg.Gauge("rim_session_queue_depth", "frames buffered across all session queues"),
		BreakerState:   reg.Gauge("rim_breaker_state", "global circuit breaker state (0 closed, 1 open, 2 half-open)"),
		Checkpoints:    reg.Counter("rim_checkpoints_total", "session checkpoints captured"),
		CheckpointErrs: reg.Counter("rim_checkpoint_errors_total", "session checkpoint captures or writes that failed"),
		Restores:       reg.Counter("rim_session_restores_total", "sessions restored from a checkpoint"),
	}
}

// sessionMetrics is one session's resolved child handles — one family
// lookup per counter at session construction, zero lookups per frame.
// All nil (no-op) when the bundle is disabled.
type sessionMetrics struct {
	restarts    *obs.Counter
	quarantined *obs.Counter
	frames      *obs.Counter
	dropped     *obs.Counter
	rejected    *obs.Counter
	degraded    *obs.Counter
	queueWait   *obs.Histogram
	lag         *obs.Histogram
	estimates   *obs.Counter
	estDegraded *obs.Counter
	lowConf     *obs.Counter
}

// children resolves the per-session child handles for id.
func (m *Metrics) children(id string) sessionMetrics {
	if m == nil {
		return sessionMetrics{}
	}
	return sessionMetrics{
		restarts:    m.Restarts.With(id),
		quarantined: m.Quarantined.With(id),
		frames:      m.Frames.With(id),
		dropped:     m.Dropped.With(id),
		rejected:    m.Rejected.With(id),
		degraded:    m.Degraded.With(id),
		queueWait:   m.QueueWait.With(id),
		lag:         m.Lag.With(id),
		estimates:   m.Estimates.With(id),
		estDegraded: m.EstDegraded.With(id),
		lowConf:     m.LowConf.With(id),
	}
}

// forgetSession folds a closed session's children into the overflow child
// so the label space tracks the live fleet, not its whole history.
func (m *Metrics) forgetSession(id string) {
	if m == nil {
		return
	}
	m.Restarts.Forget(id)
	m.Quarantined.Forget(id)
	m.Frames.Forget(id)
	m.Dropped.Forget(id)
	m.Rejected.Forget(id)
	m.Degraded.Forget(id)
	m.QueueWait.Forget(id)
	m.Lag.Forget(id)
	m.Estimates.Forget(id)
	m.EstDegraded.Forget(id)
	m.LowConf.Forget(id)
}
