package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"rim/internal/core"
	"rim/internal/obs"
	"rim/internal/obs/trace"
	"rim/internal/trrs"
)

// errInjectedPanic makes the scripted fake panic instead of returning.
var errInjectedPanic = errors.New("panic please")

// fakeDriver scripts the behavior of every stream a session's factory
// builds, across restarts. script is called with the 1-based build number
// and the 1-based push number within that build.
type fakeDriver struct {
	mu     sync.Mutex
	builds int
	script func(build, push int) error
}

func (d *fakeDriver) factory(id string, spec Spec, cp *core.StreamCheckpoint) (Stream, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.builds++
	return &fakeStream{d: d, build: d.builds, restored: cp != nil}, nil
}

func (d *fakeDriver) buildCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.builds
}

// fakeStream is one scripted incarnation. Analysis failures bump
// ConsecutiveFailures the way core.Streamer does; any other error resets
// nothing and is returned as-is.
type fakeStream struct {
	d        *fakeDriver
	build    int
	restored bool

	mu     sync.Mutex
	pushes int
	consec int
	pinned bool
}

func (f *fakeStream) PushMaskedCtx(ctx context.Context, snap [][][]complex128, missing []bool) ([]core.Estimate, error) {
	f.mu.Lock()
	f.pushes++
	n := f.pushes
	f.mu.Unlock()
	var err error
	if f.d.script != nil {
		err = f.d.script(f.build, n)
	}
	if errors.Is(err, errInjectedPanic) {
		panic("injected worker panic")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if errors.Is(err, core.ErrAnalysis) {
		f.consec++
	} else if err == nil {
		f.consec = 0
	}
	if err != nil {
		return nil, err
	}
	return []core.Estimate{{T: float64(n)}}, nil
}

func (f *fakeStream) Flush() []core.Estimate { return nil }

func (f *fakeStream) Health() core.Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	return core.Health{Slots: f.pushes, ConsecutiveFailures: f.consec}
}

func (f *fakeStream) Checkpoint() *core.StreamCheckpoint {
	return &core.StreamCheckpoint{Rate: 100, NumAnts: 3, NumTx: 1, NumSub: 4}
}

func (f *fakeStream) Pin() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pinned = true
}

// PinnedCheckpoint returns a checkpoint once Pin has run, as
// core.Streamer does.
func (f *fakeStream) PinnedCheckpoint() *core.StreamCheckpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.pinned {
		return nil
	}
	return f.Checkpoint()
}

func testSpec() Spec { return Spec{Rate: 100, NumAnts: 3, NumTx: 1, NumSub: 4} }

func testFrame() [][][]complex128 {
	snap := make([][][]complex128, 3)
	for a := range snap {
		snap[a] = [][]complex128{make([]complex128, 4)}
	}
	return snap
}

func fastSupervisor(d *fakeDriver, m *Metrics) Config {
	return Config{
		Factory:          d.factory,
		Queue:            64,
		FailureThreshold: 2,
		MaxRestarts:      2,
		BackoffMin:       time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
		HealthyAfter:     time.Millisecond,
		Metrics:          m,
	}
}

func waitState(t *testing.T, s *Session, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session stuck in %v, want %v", s.State(), want)
}

func TestSupervisorRecoversPanicAndRestarts(t *testing.T) {
	d := &fakeDriver{}
	d.script = func(build, push int) error {
		if build == 1 && push == 3 {
			return errInjectedPanic
		}
		return nil
	}
	m := NewMetricsCap(obs.NewRegistry(), 0)
	s, err := newSession("p1", testSpec(), fastSupervisor(d, m), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.ingest(testFrame(), nil); err != nil {
			t.Fatal(err)
		}
	}
	// The panic on push 3 must not kill the session: a second incarnation
	// processes the rest.
	deadline := time.Now().Add(5 * time.Second)
	for d.buildCount() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if d.buildCount() < 2 {
		t.Fatal("no restart after worker panic")
	}
	waitState(t, s, StateRunning)
	s.close()
	<-s.Done()
	if got := m.Panics.Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	if got := m.Restarts.Total(); got != 1 {
		t.Errorf("restart counter = %d, want 1", got)
	}
	if s.State() != StateClosed {
		t.Errorf("final state = %v", s.State())
	}
	if s.Estimates() == 0 {
		t.Error("no estimates recorded after recovery")
	}
}

func TestSupervisorQuarantinesFlappingSession(t *testing.T) {
	d := &fakeDriver{}
	analysisErr := fmt.Errorf("%w: synthetic hop failure", core.ErrAnalysis)
	d.script = func(build, push int) error { return analysisErr }

	m := NewMetricsCap(obs.NewRegistry(), 0)
	rec := trace.NewRecorder(16)
	pmDir := t.TempDir()
	flight := trace.NewFlight(trace.FlightConfig{Recorder: rec, Dir: pmDir})

	cfg := fastSupervisor(d, m)
	cfg.Flight = flight
	var hookMu sync.Mutex
	hooked := 0
	cfg.onQuarantine = func(qs *Session) {
		// The registry's hook consumes the exit credit; mirror that here.
		if qs.takeExit() {
			hookMu.Lock()
			hooked++
			hookMu.Unlock()
		}
	}

	s, err := newSession("q1", testSpec(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every push fails analysis; FailureThreshold=2 flaps each incarnation
	// after 2 pushes, MaxRestarts=2 allows 2 restarts, the third failure
	// quarantines. 3 incarnations × 2 pushes = 6 frames minimum.
	for i := 0; i < 20; i++ {
		_ = s.ingest(testFrame(), nil)
	}
	waitState(t, s, StateQuarantined)
	<-s.Done()

	if got := d.buildCount(); got != 3 {
		t.Errorf("stream built %d times, want 3 (initial + 2 restarts)", got)
	}
	if got := m.Restarts.Total(); got != 3 {
		t.Errorf("restart counter = %d, want 3 (each failure counts)", got)
	}
	if got := m.Quarantined.Total(); got != 1 {
		t.Errorf("quarantine counter = %d, want 1", got)
	}
	hookMu.Lock()
	h := hooked
	hookMu.Unlock()
	if h != 1 {
		t.Errorf("onQuarantine hook fired %d times, want 1", h)
	}
	// Quarantine must leave a postmortem bundle behind.
	ents, err := os.ReadDir(pmDir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range ents {
		if strings.Contains(e.Name(), trace.ReasonSessionQuarantined) {
			found = true
		}
	}
	if !found {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("no quarantine postmortem bundle in %v", names)
	}
	// Frames for a quarantined session are refused.
	if err := s.ingest(testFrame(), nil); err == nil {
		t.Error("ingest into a quarantined session must error")
	}
	// The exit credit is handed out exactly once.
	if s.takeExit() {
		t.Error("quarantine must have consumed the exit credit")
	}
}

func TestSupervisorRestartRestoresFromCheckpoint(t *testing.T) {
	d := &fakeDriver{}
	var restoredMu sync.Mutex
	restored := false
	// Every clean push of the fake stream finalizes an estimate, as a
	// completed hop does, so the first push pins the restart point the
	// restart after the second one must restore from.
	d.script = func(build, push int) error {
		if build == 1 && push == 2 {
			return errInjectedPanic
		}
		return nil
	}
	base := d.factory
	m := NewMetricsCap(obs.NewRegistry(), 0)
	cfg := fastSupervisor(d, m)
	cfg.Factory = func(id string, spec Spec, cp *core.StreamCheckpoint) (Stream, error) {
		if cp != nil {
			restoredMu.Lock()
			restored = true
			restoredMu.Unlock()
		}
		return base(id, spec, cp)
	}
	s, err := newSession("r1", testSpec(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		_ = s.ingest(testFrame(), nil)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.buildCount() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	s.close()
	<-s.Done()
	restoredMu.Lock()
	defer restoredMu.Unlock()
	if !restored {
		t.Error("restarted factory never saw the in-memory checkpoint")
	}
	if got := m.Restores.Value(); got == 0 {
		t.Error("restore counter not incremented")
	}
}

func TestSupervisorHealthyRunForgivesRestarts(t *testing.T) {
	d := &fakeDriver{}
	d.script = func(build, push int) error {
		if build == 1 {
			return fmt.Errorf("%w: early flap", core.ErrAnalysis)
		}
		return nil // second incarnation is clean
	}
	m := NewMetricsCap(obs.NewRegistry(), 0)
	s, err := newSession("h1", testSpec(), fastSupervisor(d, m), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Enough clean frames after the restart to cross the 16-frame healthy
	// check with HealthyAfter=1ms.
	for i := 0; i < 60; i++ {
		_ = s.ingest(testFrame(), nil)
		time.Sleep(time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cur, total := s.Restarts(); cur == 0 && total == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cur, total := s.Restarts()
	if cur != 0 || total != 1 {
		t.Errorf("restarts = %d (total %d), want 0 (total 1) after a healthy run", cur, total)
	}
	s.close()
	<-s.Done()
}

func TestSessionRejectPolicyRefusesOverflow(t *testing.T) {
	d := &fakeDriver{}
	block := make(chan struct{})
	var once sync.Once
	d.script = func(build, push int) error {
		<-block // wedge the worker so the queue fills
		return nil
	}
	m := NewMetricsCap(obs.NewRegistry(), 0)
	cfg := fastSupervisor(d, m)
	cfg.Queue = 2
	cfg.Policy = Reject
	s, err := newSession("rej1", testSpec(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		once.Do(func() { close(block) })
		s.close()
		<-s.Done()
	}()
	// First frame wedges in the worker; wait until it is picked up so the
	// queue is empty again, then two more fill it.
	if err := s.ingest(testFrame(), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.QueueDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if err := s.ingest(testFrame(), nil); err != nil {
			t.Fatalf("frame %d refused early: %v", i, err)
		}
	}
	if err := s.ingest(testFrame(), nil); err == nil {
		t.Fatal("overflow frame accepted under Reject policy")
	}
	if got := m.Rejected.Total(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

func TestSessionDropOldestEvicts(t *testing.T) {
	d := &fakeDriver{}
	block := make(chan struct{})
	var once sync.Once
	d.script = func(build, push int) error {
		<-block
		return nil
	}
	m := NewMetricsCap(obs.NewRegistry(), 0)
	cfg := fastSupervisor(d, m)
	cfg.Queue = 2
	cfg.Policy = DropOldest
	s, err := newSession("drop1", testSpec(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		once.Do(func() { close(block) })
		s.close()
		<-s.Done()
	}()
	for i := 0; i < 3; i++ {
		if err := s.ingest(testFrame(), nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.QueueDepth() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := s.ingest(testFrame(), nil); err != nil {
		t.Fatalf("drop-oldest ingest errored: %v", err)
	}
	if got := m.Dropped.Total(); got == 0 {
		t.Error("dropped counter not incremented")
	}
}

func TestSessionCloseIsGraceful(t *testing.T) {
	d := &fakeDriver{}
	m := NewMetricsCap(obs.NewRegistry(), 0)
	s, err := newSession("c1", testSpec(), fastSupervisor(d, m), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_ = s.ingest(testFrame(), nil)
	}
	s.close()
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("close did not stop the worker")
	}
	if s.State() != StateClosed {
		t.Errorf("state = %v, want closed", s.State())
	}
	// close is idempotent.
	s.close()
}

// TestSpecRejectsBadRate: a RIMWIRE MsgOpen carries any float64 rate, so
// spec validation must refuse NaN, ±Inf and rates past trrs.MaxRate before
// a stream is built.
func TestSpecRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5, 1e300, 2 * trrs.MaxRate} {
		spec := testSpec()
		spec.Rate = rate
		if err := spec.validate(); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
	if err := testSpec().validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}
