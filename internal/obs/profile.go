package obs

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// On-breach CPU profiling. A flight-recorder bundle explains *what* the
// pipeline decided around a breach; when the breach is an SLO page or an
// estimator-quality alert, the other half of the question is *where the
// CPU went*. The profiler captures a short pprof CPU profile into the
// postmortem bundle directory on demand, rate-limited so a flapping
// objective cannot turn the daemon into a profiling loop.

// CPUProfilerConfig parameterizes NewCPUProfiler.
type CPUProfilerConfig struct {
	// Dir is the directory profiles are written to (the postmortem
	// bundle directory, so profile and flight capture land side by
	// side). Empty disables the profiler.
	Dir string
	// Duration is the profile length (default 5s).
	Duration time.Duration
	// MinInterval rate-limits captures (default 60s).
	MinInterval time.Duration
	// Log receives capture/skip events. nil uses the package logger.
	Log *slog.Logger
}

// CPUProfiler captures rate-limited CPU profiles on breach transitions.
// The nil profiler is valid and inert, mirroring trace.Flight.
type CPUProfiler struct {
	cfg CPUProfilerConfig

	mu      sync.Mutex
	last    time.Time
	running bool
	closed  bool
	seq     int
	stop    chan struct{} // closed by Close: cuts an in-flight capture short
	wg      sync.WaitGroup

	captures atomic.Uint64
}

// NewCPUProfiler builds a profiler. Returns nil when cfg.Dir is empty —
// callers hold the nil handle and every Offer no-ops.
func NewCPUProfiler(cfg CPUProfilerConfig) *CPUProfiler {
	if cfg.Dir == "" {
		return nil
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = time.Minute
	}
	if cfg.Log == nil {
		cfg.Log = Logger()
	}
	return &CPUProfiler{cfg: cfg, stop: make(chan struct{})}
}

// Offer requests a capture tagged with the breach reason (the profile is
// written as profile-<seq>-<reason>.pprof next to the flight recorder's
// postmortem-<seq>-<reason>.json). Returns false when the profiler is
// nil, closed, already profiling, or inside the rate-limit window; the
// capture itself runs on its own goroutine so the paging path never
// blocks for the profile duration.
func (p *CPUProfiler) Offer(reason string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	now := time.Now()
	if p.closed || p.running || (!p.last.IsZero() && now.Sub(p.last) < p.cfg.MinInterval) {
		p.mu.Unlock()
		return false
	}
	p.running = true
	p.last = now
	p.seq++
	seq := p.seq
	p.wg.Add(1)
	p.mu.Unlock()
	go p.capture(seq, reason)
	return true
}

// Close refuses further captures and returns once an in-flight capture,
// cut short, has written its profile. Safe on the nil profiler and to
// call more than once.
func (p *CPUProfiler) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.stop)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *CPUProfiler) capture(seq int, reason string) {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		p.running = false
		p.mu.Unlock()
	}()
	path := filepath.Join(p.cfg.Dir, fmt.Sprintf("profile-%d-%s.pprof", seq, reason))
	f, err := os.Create(path)
	if err != nil {
		p.cfg.Log.Warn("cpu profile create failed", "path", path, "err", err)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another profile is already running (e.g. an operator curl on
		// /debug/pprof/profile): theirs wins, ours is redundant.
		p.cfg.Log.Warn("cpu profile start failed", "err", err)
		f.Close()
		os.Remove(path)
		return
	}
	select {
	case <-time.After(p.cfg.Duration):
	case <-p.stop:
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		p.cfg.Log.Warn("cpu profile close failed", "path", path, "err", err)
		return
	}
	p.captures.Add(1)
	p.cfg.Log.Info("cpu profile captured", "path", path, "reason", reason,
		"duration", p.cfg.Duration)
}

// Captures returns the number of completed profile captures.
func (p *CPUProfiler) Captures() uint64 {
	if p == nil {
		return 0
	}
	return p.captures.Load()
}
