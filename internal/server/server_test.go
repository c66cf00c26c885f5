package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rim/internal/loadgen"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/slo"
)

// The acceptance tests below run the daemon in process on loopback ports
// and drive it with internal/loadgen. The walkers replay at loadFPS, 4x
// their 50 Hz CSI rate, so a run takes a few seconds of wall time; the
// SLO windows are shortened to match.
const loadFPS = 200

// logBuf is a goroutine-safe log sink the tests grep.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// testConfig is rimserved's defaults on ephemeral loopback ports.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Listen, cfg.DebugAddr = "127.0.0.1:0", "127.0.0.1:0"
	return cfg
}

// start runs a server for the rest of the test, logging into log.
func start(t *testing.T, cfg Config, log io.Writer) *Server {
	t.Helper()
	s, err := New(cfg, obs.NewTextLogger(log, slog.LevelInfo))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// load runs walkers against addr until the returned stop is called (or
// a minute passes) and returns the generator's result.
func load(t *testing.T, addr string, sessions int, faultFrac float64) (stop func() loadgen.Result) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	type out struct {
		res loadgen.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := loadgen.Run(ctx, loadgen.Config{
			Addr: addr, Sessions: sessions, Conns: 2, Duration: time.Minute,
			Rate: 50, FPS: loadFPS, FaultFrac: faultFrac, Seed: 1,
		})
		done <- out{res, err}
	}()
	var once sync.Once
	var o out
	stop = func() loadgen.Result {
		once.Do(func() {
			cancel()
			o = <-done
		})
		if o.err != nil {
			t.Fatalf("loadgen: %v", o.err)
		}
		return o.res
	}
	t.Cleanup(func() { stop() })
	return stop
}

// await polls cond every 100ms until it holds, failing the test with
// what after timeout.
func await(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(100 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s within %v", what, timeout)
		}
	}
}

func get(t *testing.T, s *Server, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + s.DebugAddr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s %v", path, resp.Status, err)
	}
	return body
}

func getJSON(t *testing.T, s *Server, path string, v any) {
	t.Helper()
	if err := json.Unmarshal(get(t, s, path), v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// metricSum sums every sample of a metric family on a /metrics page,
// across its labeled children.
func metricSum(t *testing.T, page, name string) float64 {
	t.Helper()
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (!strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ")) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// bundle checks that dir holds a file matching pattern and, for a
// postmortem bundle, that it carries its trigger event. Call it once the
// server that writes dir is closed, so no bundle is still being written.
func bundle(t *testing.T, dir, pattern string) {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, pattern))
	if len(paths) == 0 {
		t.Fatalf("no %s in %s", pattern, dir)
	}
	if filepath.Ext(paths[0]) != ".json" {
		return
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var pm struct {
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(raw, &pm); err != nil {
		t.Fatalf("%s: %v", paths[0], err)
	}
	for _, e := range pm.Events {
		if e.Kind == "trigger" {
			return
		}
	}
	t.Errorf("%s carries no trigger event", paths[0])
}

type sessionRow struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Quality *struct {
		State string `json:"state"`
	} `json:"quality"`
}

// TestSessionSmoke: eight walkers against a six-session watermark force
// shedding; a quarter of them replay the faulty walk (two RF chains die
// mid-walk) and are restarted, then quarantined. Mid-run the daemon
// crashes; a second daemon on the same port boots from a copy of the
// checkpoint files the first left on disk, taken while it still ran, and
// the generator rides the crash out by reconnecting.
func TestSessionSmoke(t *testing.T) {
	pm, ckA, ckB := t.TempDir(), t.TempDir(), t.TempDir()
	cfg := testConfig()
	cfg.CheckpointDir, cfg.CheckpointEvery = ckA, 250*time.Millisecond
	cfg.MaxSessions, cfg.FailureThreshold, cfg.MaxRestarts = 6, 2, 2
	cfg.PostmortemOut = pm
	a := start(t, cfg, io.Discard)
	stop := load(t, a.Addr(), 8, 0.25)

	var ckpts []string
	await(t, 20*time.Second, "first daemon wrote no checkpoint", func() bool {
		ckpts, _ = filepath.Glob(filepath.Join(ckA, "*.rimckpt"))
		return len(ckpts) > 0
	})
	for _, p := range ckpts {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(ckB, filepath.Base(p)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()

	cfg.Listen, cfg.CheckpointDir = a.Addr(), ckB
	var logB logBuf
	b := start(t, cfg, &logB)
	if !strings.Contains(logB.String(), "session restored") {
		t.Fatalf("no checkpoint restore after the crash:\n%s", logB.String())
	}
	// Quarantined sessions are listed until the generator closes them, so
	// catch /sessions mid-run, after the flappers burned their restarts.
	await(t, 20*time.Second, "/sessions never showed a quarantined session", func() bool {
		var rows []sessionRow
		getJSON(t, b, "/sessions", &rows)
		for _, r := range rows {
			if r.State == "quarantined" {
				return true
			}
		}
		return false
	})
	if res := stop(); res.Reconnects == 0 {
		t.Errorf("generator never reconnected across the crash: %+v", res)
	}

	page := string(get(t, b, "/metrics"))
	for _, name := range []string{"rim_shed_total", "rim_session_restarts_total", "rim_session_quarantined_total", "rim_session_restores_total"} {
		if v := metricSum(t, page, name); v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	b.Close()
	bundle(t, pm, "postmortem-*session_quarantined*.json")
}

// TestFleetSmoke: one faulty walker in eight pages its own degraded
// objective (the per-session target is stricter than the fleet's, so
// one bad walker pages alone) while every fleet objective stays ok; the
// page captures an slo_breach bundle and shows on /metrics.
func TestFleetSmoke(t *testing.T) {
	pm := t.TempDir()
	cfg := testConfig()
	cfg.FailureThreshold, cfg.MaxRestarts, cfg.PostmortemOut = 2, 2, pm
	cfg.SLOWindow, cfg.SLOInterval = 24*time.Second, 250*time.Millisecond
	cfg.SLODegradedTarget, cfg.SLOSessionDegradedTarget = 0.75, 0.99
	s := start(t, cfg, io.Discard)
	stop := load(t, s.Addr(), 8, 0.125)

	var rep slo.Report
	await(t, 20*time.Second, "no session objective paged", func() bool {
		getJSON(t, s, "/slo", &rep)
		for _, o := range rep.Objectives {
			if o.Entity != "fleet" && o.State == "page" {
				return true
			}
		}
		return false
	})
	page := string(get(t, s, "/metrics"))
	var rows []sessionRow
	getJSON(t, s, "/sessions", &rows)
	stop()

	var fleet, paging int
	for _, o := range rep.Objectives {
		switch {
		case o.Entity == "fleet":
			fleet++
			if o.State != "ok" {
				t.Errorf("fleet objective %s is %s", o.Name, o.State)
			}
		case o.State == "page":
			paging++
			if o.BudgetRemaining != 0 {
				t.Errorf("paging objective %s kept budget %v", o.Name, o.BudgetRemaining)
			}
		}
	}
	if fleet == 0 || paging == 0 {
		t.Fatalf("%d fleet objectives, %d session objectives paging", fleet, paging)
	}
	labeled := map[string]bool{}
	for _, m := range regexp.MustCompile(`rim_session_frames_total\{session="([^"]+)"\}`).FindAllStringSubmatch(page, -1) {
		labeled[m[1]] = true
	}
	if len(labeled) < len(rows) {
		t.Errorf("per-session labels %v, want one per session of %d", labeled, len(rows))
	}
	for _, re := range []string{
		`rim_slo_state\{slo="session/[^"]+/degraded"\} 2`,
		`rim_slo_transitions_total\{slo="[^"]+",to="page"\} [1-9]`,
	} {
		if !regexp.MustCompile(re).MatchString(page) {
			t.Errorf("/metrics has no %s", re)
		}
	}
	s.Close()
	bundle(t, pm, "postmortem-*slo_breach*.json")
}

// TestQualitySmoke: walker-0000 gets deterministic fusion-input noise far
// above the tuned ZUPT measurement noise, so its NIS leaves the
// chi-square band and it alone reaches quality alert, capturing a
// quality_breach bundle and CPU profile, while the three clean walkers
// on the same template stay ok.
func TestQualitySmoke(t *testing.T) {
	pm := t.TempDir()
	cfg := testConfig()
	cfg.Fusion, cfg.MistuneSessionPrefix, cfg.PostmortemOut = "eskf", "walker-0000", pm
	s := start(t, cfg, io.Discard)
	stop := load(t, s.Addr(), 4, 0)

	var q quality.Snapshot
	state := func(entity string) string {
		for _, e := range q.Entities {
			if e.Entity == entity {
				return e.State
			}
		}
		return ""
	}
	await(t, 25*time.Second, "mis-tuned session never reached quality alert", func() bool {
		getJSON(t, s, "/quality", &q)
		return state("walker-0000") == "alert"
	})
	var rows []sessionRow
	getJSON(t, s, "/sessions", &rows)
	page := string(get(t, s, "/metrics"))
	stop()

	if q.BandConf != 0.95 || q.Samples == 0 {
		t.Errorf("degenerate /quality: band %v, %d samples", q.BandConf, q.Samples)
	}
	clean := 0
	for _, e := range q.Entities {
		if e.Entity == "walker-0000" {
			zupt := false
			for _, c := range e.Channels {
				zupt = zupt || (c.Channel == "zupt_speed" && c.State == "alert" && c.OutsideFrac >= 0.5)
			}
			if !zupt {
				t.Errorf("zupt_speed channel did not alert: %+v", e.Channels)
			}
			continue
		}
		clean++
		if e.State != "ok" {
			t.Errorf("clean walker %s is %s", e.Entity, e.State)
		}
	}
	if clean == 0 {
		t.Errorf("no clean walkers on /quality")
	}
	listed := false
	for _, r := range rows {
		if r.ID == "walker-0000" {
			listed = r.Quality != nil && r.Quality.State == "alert"
		}
	}
	if !listed {
		t.Errorf("/sessions does not list walker-0000 at quality alert: %+v", rows)
	}
	for _, re := range []string{
		`rim_quality_state\{entity="walker-0000"\} 2`,
		`rim_quality_transitions_total\{[^}]*to="alert"\} [1-9]`,
		`rim_quality_nis_ratio_bucket`,
		`rim_runtime_goroutines \d`,
		`rim_runtime_heap_bytes \d`,
	} {
		if !regexp.MustCompile(re).MatchString(page) {
			t.Errorf("/metrics has no %s", re)
		}
	}
	s.Close()
	bundle(t, pm, "postmortem-*quality_breach*.json")
	bundle(t, pm, "profile-*quality_breach*.pprof")
}
