package rim

import (
	"strings"
	"testing"
	"time"

	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/faults"
	"rim/internal/fusion"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/slo"
	"rim/internal/session"
)

// TestRepoMetricNamesLint registers every metric-producing subsystem into a
// single registry, touches one child per labeled family so the families
// render, and lints the union against the repo's Prometheus naming
// conventions (counters end _total, histograms carry a unit suffix, label
// names are legal and not __-reserved). A new metric with a bad name fails
// here, not in a dashboard three weeks later.
func TestRepoMetricNamesLint(t *testing.T) {
	reg := obs.NewRegistry()

	// Streaming front end: stream, pipeline, and incremental-TRRS metrics.
	scfg := core.StreamConfig{Core: core.DefaultConfig(array.NewLinear3(0.029))}
	scfg.Core.Obs = reg
	if _, err := core.NewStreamer(scfg, 100, 3, 1, 16); err != nil {
		t.Fatal(err)
	}

	// Both fusion backends.
	fcfg := fusion.DefaultConfig(1)
	fcfg.Obs = reg
	fusion.NewFilter(nil, geom.Pose{}, fcfg)
	ecfg := fusion.DefaultConfig(2)
	ecfg.Obs = reg
	fusion.NewESKF(geom.Pose{}, ecfg)

	// Fault injection counters.
	(&faults.Model{Obs: reg}).NewInjector(2)

	// Session layer: plain handles plus labeled families; resolve one child
	// per family so each renders into the snapshot.
	m := session.NewMetricsCap(reg, 0)
	m.Shed.With("breaker", "0").Add(0)
	for _, f := range []*obs.CounterFamily{
		m.Restarts, m.Quarantined, m.Frames, m.Dropped, m.Rejected,
		m.Degraded, m.Estimates, m.EstDegraded, m.LowConf,
	} {
		f.With("lint").Add(0)
	}
	m.QueueWait.With("lint").Observe(0)
	m.Lag.With("lint").Observe(0)
	m.ShardDepth.With("0").Set(0)
	m.ShardSessions.With("0").Set(0)

	// Estimator-quality engine: drive one monitor through an alert so the
	// state gauge, transition counter, and every telemetry histogram render.
	qeng := quality.New(quality.Config{Obs: reg, Window: 8})
	qmon := qeng.Monitor("lint")
	for i := 0; i < 8; i++ {
		qmon.Innovation(0, "zupt_speed", 10, 1) // NIS 100: far outside band
		qmon.PFStep(0.5, 0.9)
	}
	qeng.ObserveKappa(0.5)
	qeng.ObserveSharpness(0.8)
	qeng.ObserveAlignResidual(0.1)
	qeng.ObserveOutcome(0.9, true)
	qeng.ObserveOutcome(0.9, false)
	if qmon.State() != quality.StateAlert {
		t.Fatal("lint monitor never alerted — transition counter never rendered")
	}

	// Go runtime bridge.
	obs.NewRuntimeSampler(reg).Sample()

	// SLO engine: register a hard-failing objective and tick it across its
	// short window so state, budget, burn, and transition children exist.
	eng := slo.New(slo.Config{Obs: reg})
	var total float64
	if err := eng.Register(slo.Objective{
		Name:   "lint",
		Entity: "fleet",
		Target: 0.99,
		Window: time.Minute,
		Source: func() slo.Sample {
			total += 1000
			return slo.Sample{Good: 0, Total: total}
		},
	}); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	for i := 0; i < 3; i++ {
		eng.Tick(now.Add(time.Duration(i) * 10 * time.Second))
	}
	if st, ok := eng.Status("lint"); !ok || st.State != "page" {
		t.Fatalf("hard-failing objective did not page (state %v) — transition counter never rendered", st.State)
	}

	snap := reg.Snapshot()
	if len(snap) < 40 {
		t.Fatalf("only %d metrics registered; subsystem wiring lost", len(snap))
	}
	if v := obs.LintMetricNames(snap); len(v) != 0 {
		t.Fatalf("metric naming violations:\n  %s", strings.Join(v, "\n  "))
	}
}
