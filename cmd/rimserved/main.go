// Command rimserved is the RIM multi-session tracking daemon, a shell over
// internal/server: it binds one flag to each server.Config field (run
// `rimserved -h` for them), serves until SIGINT/SIGTERM, then drains every
// session, persists final checkpoints and exits; on the next start it
// restores them and resumes. A SIGKILL loses at most one checkpoint
// interval per session.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"rim/internal/obs"
	"rim/internal/server"
)

func main() {
	cfg := server.DefaultConfig()
	flag.StringVar(&cfg.Listen, "listen", cfg.Listen, "TCP ingest address")
	flag.StringVar(&cfg.DebugAddr, "debug-addr", cfg.DebugAddr, "debug HTTP address (/metrics, /healthz, /sessions, /debug/...), empty disables")
	flag.IntVar(&cfg.Shards, "shards", cfg.Shards, "session registry shard count")
	flag.IntVar(&cfg.MaxSessions, "max-sessions", cfg.MaxSessions, "admission watermark: shed session opens beyond this many live sessions (0 = unlimited)")
	flag.IntVar(&cfg.Queue, "queue", cfg.Queue, "per-session frame queue capacity")
	flag.StringVar(&cfg.Policy, "policy", cfg.Policy, "overload policy: drop-oldest, reject, degrade")
	flag.DurationVar(&cfg.HopDeadline, "hop-deadline", cfg.HopDeadline, "per-hop analysis deadline (0 = unbounded); overruns emit degraded placeholders")
	flag.Float64Var(&cfg.Span, "span", cfg.Span, "streaming analysis span, seconds")
	flag.Float64Var(&cfg.Hop, "hop", cfg.Hop, "streaming analysis hop, seconds")
	flag.Float64Var(&cfg.Window, "window", cfg.Window, "TRRS lag window, seconds")
	flag.StringVar(&cfg.Kernel, "kernel", cfg.Kernel, "TRRS kernel: vector (default), sequential (bit-exact oracle)")
	flag.StringVar(&cfg.Precision, "precision", cfg.Precision, "TRRS plane precision: float64 (default, bit-exact), float32")
	flag.IntVar(&cfg.MaxRestarts, "max-restarts", cfg.MaxRestarts, "consecutive supervisor restarts before quarantine")
	flag.IntVar(&cfg.FailureThreshold, "failure-threshold", cfg.FailureThreshold, "consecutive analysis failures before a session restart (0 = package default)")
	flag.StringVar(&cfg.CheckpointDir, "checkpoint-dir", cfg.CheckpointDir, "directory for session checkpoints (enables crash-restart)")
	flag.DurationVar(&cfg.CheckpointEvery, "checkpoint-every", cfg.CheckpointEvery, "checkpoint persistence interval")
	flag.StringVar(&cfg.PostmortemOut, "postmortem-out", cfg.PostmortemOut, "directory flight-recorder postmortem bundles are written to")
	flag.StringVar(&cfg.Fusion, "fusion", cfg.Fusion, "per-session fusion backend: off, particle, eskf (fused poses appear in /sessions)")
	flag.IntVar(&cfg.MetricCardinality, "metric-cardinality", cfg.MetricCardinality, "max labeled series per metric family; colder sessions fold into {session=\"other\"} (0 = default)")
	flag.Float64Var(&cfg.ConfidenceFloor, "confidence-floor", cfg.ConfidenceFloor, "count moving estimates below this confidence toward the confidence SLO (0 disables)")
	flag.DurationVar(&cfg.SLOWindow, "slo-window", cfg.SLOWindow, "SLO error-budget window")
	flag.DurationVar(&cfg.SLOInterval, "slo-interval", cfg.SLOInterval, "SLO evaluation and per-session objective sync interval")
	flag.Float64Var(&cfg.SLOLagLE, "slo-lag-le", cfg.SLOLagLE, "lag SLO: an estimate is good when ingest-to-emit lag is at most this many seconds; keep it above the structural floor of about one -hop (0 disables lag objectives)")
	flag.Float64Var(&cfg.SLOLagTarget, "slo-lag-target", cfg.SLOLagTarget, "lag SLO good-fraction target")
	flag.Float64Var(&cfg.SLODegradedTarget, "slo-degraded-target", cfg.SLODegradedTarget, "degraded SLO: required fraction of estimates emitted non-degraded (0 disables)")
	flag.Float64Var(&cfg.SLOConfTarget, "slo-conf-target", cfg.SLOConfTarget, "confidence SLO: required fraction of moving estimates at or above -confidence-floor (0 disables)")
	flag.Float64Var(&cfg.SLOSessionDegradedTarget, "slo-session-degraded-target", cfg.SLOSessionDegradedTarget, "per-session degraded SLO target; a single bad walker needs a tighter target than the diluted fleet ratio (0 = use -slo-degraded-target)")
	flag.BoolVar(&cfg.Quality, "quality", cfg.Quality, "estimator-quality monitors: per-channel NIS bands, TRRS signal telemetry, confidence calibration, /quality endpoint")
	flag.Float64Var(&cfg.SLOQualityTarget, "slo-quality-target", cfg.SLOQualityTarget, "fleet quality SLO: required fraction of consistency samples inside their chi-square band (0 disables)")
	flag.StringVar(&cfg.MistuneSessionPrefix, "mistune-session-prefix", cfg.MistuneSessionPrefix, "quality self-test: inject Gaussian noise into the fusion inputs of sessions whose id has this prefix (empty disables)")
	flag.Float64Var(&cfg.MistuneNoise, "mistune-noise", cfg.MistuneNoise, "mistune injection noise std, metres/radians per step")
	flag.Parse()

	log := obs.NewTextLogger(os.Stderr, slog.LevelInfo)
	obs.SetLogger(log)
	srv, err := server.New(cfg, log)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rimserved:", err)
		os.Exit(1)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	log.Info("shutting down", "signal", (<-stop).String())
	srv.Close()
}
