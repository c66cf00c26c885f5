package session

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rim/internal/obs"
)

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func newTestRegistry(t *testing.T, m *Metrics, mutate func(*RegistryConfig)) *Registry {
	t.Helper()
	d := &fakeDriver{}
	cfg := RegistryConfig{
		Shards: 2,
		Session: Config{
			Factory:         d.factory,
			Queue:           16,
			BackoffMin:      time.Millisecond,
			BackoffMax:      4 * time.Millisecond,
			HealthyAfter:    time.Millisecond,
			Metrics:         m,
			ConfidenceFloor: 0.5,
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
	return r
}

func TestInfosHandlerEnrichment(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetricsCap(reg, 0)
	r := newTestRegistry(t, m, nil)

	if _, err := r.Open("idle", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("busy", testSpec()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := r.Ingest("busy", testFrame(), nil); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "busy session estimates", func() bool {
		s := r.Get("busy")
		return s != nil && s.Estimates() >= 4
	})

	rec := httptest.NewRecorder()
	r.InfosHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/sessions", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	// State marshals as a string, so decode generically.
	var infos []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("got %d sessions, want 2", len(infos))
	}
	// ID-sorted: busy < idle.
	busy, idle := infos[0], infos[1]
	if busy["id"] != "busy" || idle["id"] != "idle" {
		t.Fatalf("order wrong: %v, %v", busy["id"], idle["id"])
	}
	if age := idle["last_estimate_age_seconds"].(float64); age != -1 {
		t.Fatalf("idle session age = %v, want -1 sentinel", age)
	}
	if age := busy["last_estimate_age_seconds"].(float64); age < 0 {
		t.Fatalf("busy session age = %v, want >= 0", age)
	}
	if n := busy["estimates"].(float64); n < 4 {
		t.Fatalf("busy estimates = %v, want >= 4", n)
	}
	// The raw JSON must carry the pinned field names rimtop parses.
	for _, field := range []string{`"queue_depth"`, `"estimates_degraded"`, `"last_estimate_age_seconds"`, `"restarts_total"`, `"state"`} {
		if !strings.Contains(rec.Body.String(), field) {
			t.Fatalf("payload missing %s:\n%s", field, rec.Body.String())
		}
	}
}

func TestPerSessionMetricsAttributed(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetricsCap(reg, 0)
	r := newTestRegistry(t, m, nil)

	for _, id := range []string{"w1", "w2"} {
		if _, err := r.Open(id, testSpec()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := r.Ingest("w1", testFrame(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Ingest("w2", testFrame(), nil); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "frames drained", func() bool {
		return r.Get("w1").Estimates() >= 3 && r.Get("w2").Estimates() >= 1
	})

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`rim_session_frames_total{session="w1"} 3`,
		`rim_session_frames_total{session="w2"} 1`,
		`rim_session_estimates_total{session="w1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	if got := m.Frames.Total(); got != 4 {
		t.Fatalf("Frames.Total = %d, want 4", got)
	}

	// Closing w1 folds its children into the overflow child: totals are
	// conserved, the label disappears.
	if err := r.Close("w1"); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	reg.WritePrometheus(&sb)
	out = sb.String()
	if strings.Contains(out, `rim_session_frames_total{session="w1"}`) {
		t.Fatalf("closed session still labeled:\n%s", out)
	}
	if !strings.Contains(out, `rim_session_frames_total{session="other"} 3`) {
		t.Fatalf("closed session's counts not folded into other:\n%s", out)
	}
	if got := m.Frames.Total(); got != 4 {
		t.Fatalf("Frames.Total = %d after close, want 4 (counts conserved)", got)
	}
}

func TestShedAttributedByReasonAndShard(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetricsCap(reg, 0)
	r := newTestRegistry(t, m, func(cfg *RegistryConfig) { cfg.MaxSessions = 1 })

	if _, err := r.Open("only", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("refused", testSpec()); err == nil {
		t.Fatal("open past watermark accepted")
	}
	if got := m.Shed.Total(); got != 1 {
		t.Fatalf("Shed.Total = %d, want 1", got)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `rim_shed_total{reason="watermark",shard=`) {
		t.Fatalf("shed not attributed by reason+shard:\n%s", sb.String())
	}
}

func TestMetricsCapBoundsSessionFlood(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetricsCap(reg, 8)
	for i := 0; i < 100; i++ {
		sm := m.children(fmt.Sprintf("flood-%03d", i))
		sm.frames.Inc()
		sm.queueWait.Observe(0.001)
	}
	if m.Frames.Len() != 8 || m.QueueWait.Len() != 8 {
		t.Fatalf("family sizes %d/%d, want 8 (cap)", m.Frames.Len(), m.QueueWait.Len())
	}
	if got := m.Frames.Total(); got != 100 {
		t.Fatalf("Frames.Total = %d, want 100 — flood lost counts", got)
	}
	if got := m.QueueWait.Other().Count(); got != 92 {
		t.Fatalf("overflow wait count = %d, want 92", got)
	}
}

// TestOverflowSessionIDRefused pins that a session named like the
// families' overflow child cannot open, from the wire or from a
// checkpoint: its series would share a label set with the overflow's.
func TestOverflowSessionIDRefused(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetricsCap(reg, 1)
	dir := t.TempDir()
	r := newTestRegistry(t, m, func(cfg *RegistryConfig) {
		cfg.CheckpointDir = dir
		cfg.CheckpointEvery = time.Hour // only the checkpoint saved below is on disk
	})
	for _, id := range []string{"a", "b"} { // opening b evicts a into the overflow child
		if _, err := r.Open(id, testSpec()); err != nil {
			t.Fatal(err)
		}
		if err := r.Ingest(id, testFrame(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Open(obs.OverflowLabel, testSpec()); err == nil {
		t.Fatal("open of a session named like the overflow child accepted")
	}
	if _, err := SaveCheckpoint(dir, &Checkpoint{ID: obs.OverflowLabel, Spec: testSpec()}); err != nil {
		t.Fatal(err)
	}
	if n, errs := r.Restore(); n != 0 || len(errs) != 1 {
		t.Fatalf("restore of a checkpoint named like the overflow child = %d sessions, errors %v", n, errs)
	}
	if r.Get(obs.OverflowLabel) != nil {
		t.Fatal("a session named like the overflow child is live")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		if seen[series] {
			t.Fatalf("series %s rendered twice:\n%s", series, sb.String())
		}
		seen[series] = true
	}
	if !seen[`rim_session_frames_total{session="other"}`] {
		t.Fatalf("evicted session a not folded into the overflow series:\n%s", sb.String())
	}
}

// TestSessionChurnScrapeRace opens, drives, and closes sessions from
// several goroutines while /metrics and /sessions are scraped; run under
// -race this pins the labeled-family integration.
func TestSessionChurnScrapeRace(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetricsCap(reg, 16)
	r := newTestRegistry(t, m, func(cfg *RegistryConfig) { cfg.Shards = 4 })

	const churners = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("churn-%d-%d", c, i%10)
				if _, err := r.Open(id, testSpec()); err != nil {
					continue
				}
				r.Ingest(id, testFrame(), nil)
				if i%3 == 0 {
					r.Close(id)
				}
			}
		}(c)
	}
	var scrapeWg sync.WaitGroup
	scrapeWg.Add(1)
	go func() {
		defer scrapeWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			rec := httptest.NewRecorder()
			r.InfosHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/sessions", nil))
		}
	}()
	wg.Wait()
	close(stop)
	scrapeWg.Wait()
	if got, want := m.Frames.Total(), m.Estimates.Total(); got < want {
		t.Fatalf("frames %d < estimates %d: impossible accounting", got, want)
	}
}
