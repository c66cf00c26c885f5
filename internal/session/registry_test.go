package session

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"rim/internal/core"
	"rim/internal/obs"
)

func testRegistry(t *testing.T, d *fakeDriver, mutate func(*RegistryConfig)) (*Registry, *Metrics) {
	t.Helper()
	m := NewMetricsCap(obs.NewRegistry(), 0)
	cfg := RegistryConfig{
		Shards: 4,
		Session: Config{
			Factory:          d.factory,
			Queue:            32,
			FailureThreshold: 2,
			MaxRestarts:      2,
			BackoffMin:       time.Millisecond,
			BackoffMax:       4 * time.Millisecond,
			HealthyAfter:     time.Millisecond,
			Metrics:          m,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Shutdown)
	return r, m
}

func TestRegistryOpenIngestClose(t *testing.T) {
	d := &fakeDriver{}
	r, m := testRegistry(t, d, nil)

	s, err := r.Open("w1", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if again, err := r.Open("w1", testSpec()); err != nil || again != s {
		t.Fatal("re-open of a live session must be idempotent")
	}
	if r.Get("w1") != s {
		t.Fatal("Get lost the session")
	}
	if err := r.Ingest("w1", testFrame(), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest("ghost", testFrame(), nil); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("unknown-session ingest error = %v", err)
	}
	if err := r.Close("w1"); err != nil {
		t.Fatal(err)
	}
	if r.Get("w1") != nil {
		t.Fatal("closed session still resolvable")
	}
	if err := r.Close("w1"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("double close error = %v", err)
	}
	if got := m.Opened.Value(); got != 1 {
		t.Errorf("opened counter = %d", got)
	}
	if live := r.live.Load(); live != 0 {
		t.Errorf("live count = %d after close", live)
	}
}

func TestRegistryShedsAtWatermark(t *testing.T) {
	d := &fakeDriver{}
	r, m := testRegistry(t, d, func(c *RegistryConfig) { c.MaxSessions = 2 })
	for i := 0; i < 2; i++ {
		if _, err := r.Open(fmt.Sprintf("w%d", i), testSpec()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Open("overflow", testSpec()); !errors.Is(err, ErrShed) {
		t.Fatalf("open past watermark = %v, want ErrShed", err)
	}
	if got := m.Shed.Total(); got != 1 {
		t.Errorf("shed counter = %d", got)
	}
	// Closing one frees a slot.
	if err := r.Close("w0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("overflow", testSpec()); err != nil {
		t.Fatalf("open after a slot freed = %v", err)
	}
}

func TestRegistryShedsWhileBreakerOpen(t *testing.T) {
	d := &fakeDriver{}
	br := NewBreaker(BreakerConfig{FailureThreshold: 1, Window: time.Hour, Cooldown: time.Hour})
	r, m := testRegistry(t, d, func(c *RegistryConfig) { c.Breaker = br })
	br.Failure()
	if _, err := r.Open("w1", testSpec()); !errors.Is(err, ErrShed) {
		t.Fatalf("open with open breaker = %v, want ErrShed", err)
	}
	if got := m.Shed.Total(); got == 0 {
		t.Error("shed counter not incremented")
	}
}

func TestRegistryQuarantineFreesLiveSlot(t *testing.T) {
	d := &fakeDriver{}
	d.script = func(build, push int) error {
		return fmt.Errorf("%w: always failing", core.ErrAnalysis)
	}
	r, _ := testRegistry(t, d, func(c *RegistryConfig) { c.MaxSessions = 1 })
	s, err := r.Open("flappy", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_ = r.Ingest("flappy", testFrame(), nil)
	}
	waitState(t, s, StateQuarantined)
	// The quarantined session no longer occupies a live slot, so a new
	// session is admitted despite MaxSessions=1.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err = r.Open("fresh", testSpec()); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("open after quarantine freed the slot = %v", err)
	}
}

func TestRegistryCheckpointRestoreCycle(t *testing.T) {
	dir := t.TempDir()
	d := &fakeDriver{}
	r1, m1 := testRegistry(t, d, func(c *RegistryConfig) {
		c.CheckpointDir = dir
		c.CheckpointEvery = time.Hour // only explicit CheckpointAll/Shutdown persist
	})
	for i := 0; i < 3; i++ {
		s, err := r1.Open(fmt.Sprintf("w%d", i), testSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := r1.Ingest(fmt.Sprintf("w%d", i), testFrame(), nil); err != nil {
			t.Fatal(err)
		}
		waitState(t, s, StateRunning) // worker up, stream built
	}
	if n := r1.CheckpointAll(); n != 3 {
		t.Fatalf("checkpointed %d sessions, want 3", n)
	}
	if got := m1.Checkpoints.Value(); got != 3 {
		t.Errorf("checkpoint counter = %d", got)
	}
	r1.Shutdown()

	// A new registry (the restarted daemon) restores all three.
	d2 := &fakeDriver{}
	r2, m2 := testRegistry(t, d2, func(c *RegistryConfig) { c.CheckpointDir = dir })
	n, errs := r2.Restore()
	if len(errs) != 0 {
		t.Fatalf("restore errors: %v", errs)
	}
	if n != 3 {
		t.Fatalf("restored %d sessions, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if r2.Get(fmt.Sprintf("w%d", i)) == nil {
			t.Fatalf("session w%d missing after restore", i)
		}
	}
	if got := m2.Restores.Value(); got == 0 {
		t.Error("restore counter not incremented")
	}
	// Closing a restored session removes its checkpoint file for good.
	if err := r2.Close("w0"); err != nil {
		t.Fatal(err)
	}
	cps, _ := LoadCheckpointDir(dir)
	for _, cp := range cps {
		if cp.ID == "w0" {
			t.Error("closed session's checkpoint still on disk")
		}
	}
}

// TestRegistryChaosSoak is the in-process miniature of the acceptance
// soak: many concurrent sessions, a fifth of them intentionally flapping,
// concurrent ingest, one registry "restart" mid-run, and a goroutine-leak
// check at the end. Run with -race.
func TestRegistryChaosSoak(t *testing.T) {
	before := runtime.NumGoroutine()

	dir := t.TempDir()
	const sessions = 50
	const faulty = 10 // sessions 0..9 flap into quarantine
	newDriver := func() *fakeDriver {
		d := &fakeDriver{}
		d.script = func(build, push int) error {
			return nil
		}
		return d
	}
	faultyID := func(id string) bool {
		var n int
		if _, err := fmt.Sscanf(id, "w%d", &n); err != nil {
			return false
		}
		return n < faulty
	}
	driver := newDriver()
	factory := func(id string, spec Spec, cp *core.StreamCheckpoint) (Stream, error) {
		st, err := driver.factory(id, spec, cp)
		if err != nil {
			return nil, err
		}
		if faultyID(id) {
			return &flappingStream{inner: st.(*fakeStream)}, nil
		}
		return st, nil
	}

	m := NewMetricsCap(obs.NewRegistry(), 0)
	mkRegistry := func() *Registry {
		r, err := NewRegistry(RegistryConfig{
			Shards:        8,
			CheckpointDir: dir,
			Session: Config{
				Factory:          factory,
				Queue:            16,
				Policy:           DropOldest,
				FailureThreshold: 2,
				MaxRestarts:      2,
				BackoffMin:       time.Millisecond,
				BackoffMax:       4 * time.Millisecond,
				HealthyAfter:     time.Millisecond,
				Metrics:          m,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	run := func(r *Registry, rounds int) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < sessions; i += 4 {
					id := fmt.Sprintf("w%d", i)
					if _, err := r.Open(id, testSpec()); err != nil {
						continue
					}
					for f := 0; f < rounds; f++ {
						_ = r.Ingest(id, testFrame(), nil)
					}
				}
			}(w)
		}
		wg.Wait()
	}

	r := mkRegistry()
	run(r, 30)
	r.CheckpointAll()
	r.Shutdown() // "kill" the daemon…

	r = mkRegistry() // …and restart it from checkpoints
	if n, _ := r.Restore(); n == 0 {
		t.Fatal("nothing restored after the mid-run restart")
	}
	run(r, 30)

	// Every flapper quarantines; no healthy session does.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		q := 0
		for _, s := range r.Sessions() {
			if s.State() == StateQuarantined {
				q++
			}
		}
		if q >= faulty {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, s := range r.Sessions() {
		if faultyID(s.ID) {
			if st := s.State(); st != StateQuarantined {
				t.Errorf("faulty %s state = %v, want quarantined", s.ID, st)
			}
		} else if st := s.State(); st == StateQuarantined {
			t.Errorf("healthy %s was quarantined", s.ID)
		}
	}
	if got := m.Quarantined.Total(); got == 0 {
		t.Error("no quarantines recorded")
	}
	r.Shutdown()

	// No goroutine leaks once everything is shut down.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after shutdown", before, runtime.NumGoroutine())
}

// flappingStream fails analysis on every push, like a stream whose array
// lost too many antennas to align.
type flappingStream struct {
	inner *fakeStream
	mu    sync.Mutex
	n     int
}

func (f *flappingStream) PushMaskedCtx(ctx context.Context, snap [][][]complex128, missing []bool) ([]core.Estimate, error) {
	f.mu.Lock()
	f.n++
	f.mu.Unlock()
	return nil, fmt.Errorf("%w: flapping stream", core.ErrAnalysis)
}

func (f *flappingStream) Flush() []core.Estimate { return nil }

func (f *flappingStream) Health() core.Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	return core.Health{ConsecutiveFailures: f.n}
}

func (f *flappingStream) Checkpoint() *core.StreamCheckpoint { return f.inner.Checkpoint() }

func (f *flappingStream) Pin() { f.inner.Pin() }

func (f *flappingStream) PinnedCheckpoint() *core.StreamCheckpoint { return f.inner.PinnedCheckpoint() }
