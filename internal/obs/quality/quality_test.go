package quality

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"rim/internal/obs"
	"rim/internal/obs/trace"
)

// TestNilEngineNoOps: the nil engine and its nil monitor must be fully
// inert — the disabled-monitoring contract every hot path relies on.
func TestNilEngineNoOps(t *testing.T) {
	var e *Engine
	m := e.Monitor("x")
	if m != nil {
		t.Fatalf("nil engine handed out a non-nil monitor")
	}
	m.Innovation(0, "zupt_speed", 1, 1)
	m.PFStep(0.5, 0.5)
	if st := m.State(); st != StateOK {
		t.Fatalf("nil monitor state = %v", st)
	}
	if st, frac, n := m.Summary(); st != StateOK || frac != 0 || n != 0 {
		t.Fatalf("nil monitor summary = %v %v %v", st, frac, n)
	}
	e.ObserveKappa(1)
	e.ObserveSharpness(1)
	e.ObserveAlignResidual(0)
	e.ObserveOutcome(0.5, true)
	e.Forget("x")
	if s, o := e.Totals(); s != 0 || o != 0 {
		t.Fatalf("nil engine totals = %d %d", s, o)
	}
	if snap := e.Snapshot(); len(snap.Entities) != 0 {
		t.Fatalf("nil engine snapshot has entities")
	}
	e.Calibration().Add(0.5, true)
}

// TestConsistentInnovationsStayOK: innovations drawn from the filter's
// own model (NIS ~ chi-square(1)) must keep the monitor quiet — the band
// leaks ~5%, far below WarnFrac.
func TestConsistentInnovationsStayOK(t *testing.T) {
	e := New(Config{})
	m := e.Monitor("clean")
	rng := rand.New(rand.NewSource(7))
	s := 0.04 // arbitrary innovation variance
	for i := 0; i < 5000; i++ {
		nu := rng.NormFloat64() * math.Sqrt(s)
		m.Innovation(0, "zupt_speed", nu, s)
		if st := m.State(); st != StateOK {
			t.Fatalf("consistent innovations tripped the monitor to %v after %d samples", st, i+1)
		}
	}
	_, frac, n := m.Summary()
	if n != 5000 {
		t.Fatalf("samples = %d, want 5000", n)
	}
	// The windowed outside fraction should hover near the 5% leak.
	if frac > 0.19 {
		t.Fatalf("outside fraction %v too close to WarnFrac for clean input", frac)
	}
}

// TestMistunedInnovationsAlertBounded: innovations with true noise far
// above the modeled variance must reach alert within a bounded number of
// updates, and the alert must offer a ReasonQualityBreach capture and a
// transitions metric.
func TestMistunedInnovationsAlertBounded(t *testing.T) {
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(1024)
	flight := trace.NewFlight(trace.FlightConfig{
		Recorder: rec,
		Trigger:  func(reason string) bool { return reason == trace.ReasonQualityBreach },
	})
	var transitions []State
	e := New(Config{
		Obs: reg, Trace: rec, Flight: flight,
		OnTransition: func(entity string, from, to State, channel string, frac float64) {
			transitions = append(transitions, to)
		},
	})
	m := e.Monitor("mistuned")
	rng := rand.New(rand.NewSource(11))
	s := 0.0004 // modeled variance: std 0.02
	trueStd := 0.5
	steps := 0
	for i := 0; i < 200 && m.State() != StateAlert; i++ {
		m.Innovation(0, "zupt_speed", rng.NormFloat64()*trueStd, s)
		steps++
	}
	if m.State() != StateAlert {
		t.Fatalf("25x noise mistune never reached alert in %d updates", steps)
	}
	// MinSamples (Window/4 = 16) gates the first verdict; alert must
	// arrive essentially as soon as a verdict is allowed.
	if steps > 32 {
		t.Fatalf("alert took %d updates, want <= 32", steps)
	}
	if flight.Captures() != 1 {
		t.Fatalf("alert captured %d postmortems, want 1", flight.Captures())
	}
	if len(transitions) == 0 || transitions[len(transitions)-1] != StateAlert {
		t.Fatalf("transition hook saw %v, want trailing alert", transitions)
	}
	// The monitor must hold at alert without flapping back on further
	// mistuned input.
	for i := 0; i < 100; i++ {
		m.Innovation(0, "zupt_speed", rng.NormFloat64()*trueStd, s)
	}
	if m.State() != StateAlert {
		t.Fatalf("monitor left alert under sustained mistune")
	}
	if flight.Captures() != 1 {
		t.Fatalf("sustained alert re-captured; transitions must fire once per state change")
	}
}

// TestChannelIsolation: a mistuned channel must not poison a clean one's
// verdict bookkeeping, and the monitor's state must be the worst channel.
func TestChannelIsolation(t *testing.T) {
	e := New(Config{})
	m := e.Monitor("x")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		m.Innovation(0, "zupt_speed", rng.NormFloat64()*0.02, 0.0004) // consistent
		m.Innovation(1, "zupt_gyro", rng.NormFloat64()*0.5, 0.0004)   // mistuned
	}
	snap := e.Snapshot()
	if len(snap.Entities) != 1 {
		t.Fatalf("entities = %d", len(snap.Entities))
	}
	var clean, dirty *ChannelSnapshot
	for i := range snap.Entities[0].Channels {
		ch := &snap.Entities[0].Channels[i]
		switch ch.Channel {
		case "zupt_speed":
			clean = ch
		case "zupt_gyro":
			dirty = ch
		}
	}
	if clean == nil || dirty == nil {
		t.Fatalf("missing channels in snapshot: %+v", snap.Entities[0].Channels)
	}
	if clean.State != "ok" {
		t.Fatalf("clean channel state = %s", clean.State)
	}
	if dirty.State != "alert" {
		t.Fatalf("mistuned channel state = %s", dirty.State)
	}
	if snap.Entities[0].State != "alert" {
		t.Fatalf("entity state = %s, want worst channel", snap.Entities[0].State)
	}
}

// TestSlipChannelNeverTrips: the no-lateral-slip pseudo-measurement's
// innovation is identically zero by construction; its NIS is 0 and must
// never count outside the band.
func TestSlipChannelNeverTrips(t *testing.T) {
	e := New(Config{})
	m := e.Monitor("x")
	for i := 0; i < 500; i++ {
		m.Innovation(2, "slip", 0, 0.0025)
	}
	if st := m.State(); st != StateOK {
		t.Fatalf("slip channel tripped to %v", st)
	}
	if _, outside := e.Totals(); outside != 0 {
		t.Fatalf("slip channel counted %d outside-band", outside)
	}
}

// TestPFDegeneracyTrips: a collapsed particle cloud (ESS below PFLowESS)
// must alert; a healthy cloud must not.
func TestPFDegeneracyTrips(t *testing.T) {
	e := New(Config{})
	healthy := e.Monitor("pf-ok")
	for i := 0; i < 100; i++ {
		healthy.PFStep(0.8, 0.95)
	}
	if st := healthy.State(); st != StateOK {
		t.Fatalf("healthy PF state = %v", st)
	}
	collapsed := e.Monitor("pf-bad")
	for i := 0; i < 100; i++ {
		collapsed.PFStep(0.02, 0.1)
	}
	if st := collapsed.State(); st != StateAlert {
		t.Fatalf("collapsed PF state = %v, want alert", st)
	}
}

// TestChiSquareUpper pins the tabulated quantiles and the clamping.
func TestChiSquareUpper(t *testing.T) {
	cases := []struct {
		dof  int
		want float64
	}{
		{1, 3.841}, {2, 5.991}, {3, 7.815},
		{4, 9.488}, {5, 11.070},
		{0, 3.841}, {9, 11.070}, // clamped
	}
	for _, c := range cases {
		if got := ChiSquareUpper(c.dof); got != c.want {
			t.Errorf("ChiSquareUpper(%d) = %v, want %v", c.dof, got, c.want)
		}
	}
}

// TestForgetRetiresEntity: Forget must drop the monitor and its labeled
// state series; a fresh Monitor call builds a new window.
func TestForgetRetiresEntity(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Obs: reg})
	m := e.Monitor("s1")
	m.Innovation(0, "zupt_speed", 10, 0.001)
	e.Forget("s1")
	if snap := e.Snapshot(); len(snap.Entities) != 0 {
		t.Fatalf("forgotten entity still in snapshot: %+v", snap.Entities)
	}
	m2 := e.Monitor("s1")
	if _, _, n := m2.Summary(); n != 0 {
		t.Fatalf("re-created monitor inherited %d samples", n)
	}
}

// TestCalibrationCurve: the curve must bin confidence correctly and the
// ECE must read the diagonal gap.
func TestCalibrationCurve(t *testing.T) {
	c := NewCalibration(10)
	// 100 samples at conf 0.85, 90 of them good: well calibrated.
	for i := 0; i < 100; i++ {
		c.Add(0.85, i < 90)
	}
	// 50 samples at conf 0.95, only 10 good: badly calibrated.
	for i := 0; i < 50; i++ {
		c.Add(0.95, i < 10)
	}
	curve := c.Curve()
	if len(curve) != 10 {
		t.Fatalf("curve has %d bins", len(curve))
	}
	b8, b9 := curve[8], curve[9]
	if b8.Samples != 100 || math.Abs(b8.Observed-0.9) > 1e-12 {
		t.Fatalf("bin[0.8,0.9) = %+v", b8)
	}
	if b9.Samples != 50 || math.Abs(b9.Observed-0.2) > 1e-12 {
		t.Fatalf("bin[0.9,1.0] = %+v", b9)
	}
	ece := ExpectedCalibrationError(curve)
	// bin 8 gap |0.9-0.85| = 0.05 weighted 100/150; bin 9 gap
	// |0.2-0.95| = 0.75 weighted 50/150.
	want := (100*0.05 + 50*0.75) / 150
	if math.Abs(ece-want) > 1e-12 {
		t.Fatalf("ECE = %v, want %v", ece, want)
	}
	// Edge and invalid inputs.
	if c.Add(math.NaN(), true) || c.Add(math.Inf(1), true) {
		t.Fatalf("non-finite confidence accepted")
	}
	if !c.Add(1.0, true) || !c.Add(0.0, false) || !c.Add(-0.5, true) || !c.Add(1.5, true) {
		t.Fatalf("edge confidences rejected")
	}
	if got := c.Samples(); got != 154 {
		t.Fatalf("samples = %d, want 154", got)
	}
}

// TestHandlerServesSnapshot: /quality must serve the full snapshot as
// JSON, round-trippable into the Snapshot type.
func TestHandlerServesSnapshot(t *testing.T) {
	e := New(Config{})
	m := e.Monitor("s1")
	for i := 0; i < 64; i++ {
		m.Innovation(0, "zupt_speed", 10, 0.001)
	}
	e.ObserveOutcome(0.7, true)
	e.ObserveOutcome(0.7, false)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.BandConf != 0.95 {
		t.Fatalf("band_conf = %v", snap.BandConf)
	}
	if len(snap.Entities) != 1 || snap.Entities[0].State != "alert" {
		t.Fatalf("entities = %+v", snap.Entities)
	}
	if len(snap.Calibration) != 10 {
		t.Fatalf("calibration bins = %d", len(snap.Calibration))
	}
	// Nil engine must still serve valid JSON.
	var nilEng *Engine
	rr := httptest.NewRecorder()
	nilEng.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/quality", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("nil engine handler: %v", err)
	}
}

// TestEngineMetricsRegistered: the full rim_quality_* surface must land
// in the registry and pass the naming lint.
func TestEngineMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Obs: reg})
	m := e.Monitor("s1")
	m.Innovation(0, "zupt_speed", 10, 0.001)
	m.PFStep(0.5, 0.8)
	e.ObserveKappa(0.9)
	e.ObserveSharpness(0.7)
	e.ObserveAlignResidual(0.3)
	e.ObserveOutcome(0.8, true)
	snap := reg.Snapshot()
	want := map[string]bool{
		"rim_quality_nis_ratio":                 false,
		"rim_quality_outside_band_total":        false,
		"rim_quality_samples_total":             false,
		"rim_quality_state":                     false,
		"rim_quality_pf_ess_ratio":              false,
		"rim_quality_pf_entropy_ratio":          false,
		"rim_quality_kappa_ratio":               false,
		"rim_quality_sharpness_ratio":           false,
		"rim_quality_align_residual_ratio":      false,
		"rim_quality_calibration_samples_total": false,
	}
	for _, mt := range snap {
		if _, ok := want[mt.Name]; ok {
			want[mt.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metric %s not in snapshot", name)
		}
	}
	if bad := obs.LintMetricNames(snap); len(bad) > 0 {
		t.Fatalf("lint violations: %v", bad)
	}
}

// TestConcurrentMonitors: concurrent sessions feeding separate monitors
// plus snapshot scrapes must be race-free (run under -race).
func TestConcurrentMonitors(t *testing.T) {
	e := New(Config{Obs: obs.NewRegistry()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := e.Monitor(string(rune('a' + g)))
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				m.Innovation(i%2, "ch", rng.NormFloat64(), 1)
				m.PFStep(rng.Float64(), rng.Float64())
				e.ObserveOutcome(rng.Float64(), i%3 == 0)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			e.Snapshot()
			e.Totals()
		}
	}()
	wg.Wait()
	<-done
}
