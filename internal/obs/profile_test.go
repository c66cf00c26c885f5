package obs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func waitCaptures(t *testing.T, p *CPUProfiler, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Captures() < want {
		if time.Now().After(deadline) {
			t.Fatalf("captures = %d, want %d", p.Captures(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCPUProfilerCaptures: an offer must produce a named .pprof file in
// the bundle directory, and the rate limit must swallow an immediate
// second offer.
func TestCPUProfilerCaptures(t *testing.T) {
	dir := t.TempDir()
	p := NewCPUProfiler(CPUProfilerConfig{
		Dir:         dir,
		Duration:    20 * time.Millisecond,
		MinInterval: time.Hour,
	})
	if !p.Offer("quality_breach") {
		t.Fatalf("first offer refused")
	}
	if p.Offer("quality_breach") {
		t.Fatalf("rate limit admitted a second offer")
	}
	waitCaptures(t, p, 1)
	path := filepath.Join(dir, "profile-1-quality_breach.pprof")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("profile file: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatalf("profile file is empty")
	}
}

// TestCPUProfilerRateLimitExpires: once the interval passes, a new offer
// must capture again with the next sequence number.
func TestCPUProfilerRateLimitExpires(t *testing.T) {
	dir := t.TempDir()
	p := NewCPUProfiler(CPUProfilerConfig{
		Dir:         dir,
		Duration:    10 * time.Millisecond,
		MinInterval: 30 * time.Millisecond,
	})
	if !p.Offer("slo_breach") {
		t.Fatalf("first offer refused")
	}
	waitCaptures(t, p, 1)
	time.Sleep(40 * time.Millisecond)
	if !p.Offer("slo_breach") {
		t.Fatalf("post-interval offer refused")
	}
	waitCaptures(t, p, 2)
	if _, err := os.Stat(filepath.Join(dir, "profile-2-slo_breach.pprof")); err != nil {
		t.Fatalf("second profile: %v", err)
	}
}

// TestCPUProfilerDisabled: empty dir and the nil profiler must be inert.
func TestCPUProfilerDisabled(t *testing.T) {
	if p := NewCPUProfiler(CPUProfilerConfig{}); p != nil {
		t.Fatalf("empty dir built a live profiler")
	}
	var p *CPUProfiler
	if p.Offer("x") {
		t.Fatalf("nil profiler accepted an offer")
	}
	if p.Captures() != 0 {
		t.Fatalf("nil profiler counted captures")
	}
}

// TestCPUProfilerCloseCutsCapture: Close must end an in-flight capture
// long before its duration, leave its profile written, and refuse later
// offers, so an owner that closes the profiler leaves no capture running.
func TestCPUProfilerCloseCutsCapture(t *testing.T) {
	dir := t.TempDir()
	p := NewCPUProfiler(CPUProfilerConfig{Dir: dir, Duration: time.Hour})
	if !p.Offer("slo_breach") {
		t.Fatalf("first offer refused")
	}
	start := time.Now()
	p.Close()
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Close took %v", d)
	}
	if p.Captures() != 1 {
		t.Fatalf("captures = %d after Close, want 1", p.Captures())
	}
	if _, err := os.Stat(filepath.Join(dir, "profile-1-slo_breach.pprof")); err != nil {
		t.Fatalf("profile: %v", err)
	}
	if p.Offer("slo_breach") {
		t.Fatalf("closed profiler accepted an offer")
	}
	p.Close()
	var nilP *CPUProfiler
	nilP.Close()
}
