// Command rimloadgen drives a rimserved daemon with the simulated walkers
// of internal/loadgen and reports what happened.
//
// Usage:
//
//	rimloadgen [-addr localhost:7101] [-sessions 50] [-conns 4]
//	           [-duration 10s] [-rate 50] [-fps 0] [-fault-frac 0.2]
//	           [-debug-url http://localhost:7171] [-seed 1]
//
// -fps paces replay per session (0 = as fast as possible, the overload
// case). At the end it reports frames sent, reconnects, sessions/core, and
// — when -debug-url points at the daemon's debug server — shed/restart/
// quarantine counters and the p99 ingest-to-emit lag from
// rim_stream_lag_seconds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"rim/internal/loadgen"
	"rim/internal/obs"
	"rim/internal/session"
)

func main() {
	var cfg loadgen.Config
	flag.StringVar(&cfg.Addr, "addr", "localhost:7101", "rimserved ingest address")
	flag.IntVar(&cfg.Sessions, "sessions", 50, "concurrent simulated walkers")
	flag.IntVar(&cfg.Conns, "conns", 4, "TCP connections to spread sessions over")
	flag.DurationVar(&cfg.Duration, "duration", 10*time.Second, "how long to generate load")
	flag.Float64Var(&cfg.Rate, "rate", 50, "CSI packet rate of the simulated walkers, Hz")
	flag.Float64Var(&cfg.FPS, "fps", 0, "replay pacing per session, frames/s (0 = unpaced, the overload case)")
	flag.Float64Var(&cfg.FaultFrac, "fault-frac", 0.2, "fraction of sessions replaying the faulty (flapping) walk")
	debugURL := flag.String("debug-url", "", "rimserved debug base URL to scrape for the end-of-run report (e.g. http://localhost:7171)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "simulation seed")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "rimloadgen: synthesizing templates (rate %.0f Hz)...\n", cfg.Rate)
	res, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rimloadgen:", err)
		os.Exit(1)
	}
	fmt.Printf("rimloadgen: %d sessions (%d faulty) over %d conns for %s\n",
		cfg.Sessions, res.Faulty, res.Conns, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("  frames sent:      %d (%.0f frames/s)\n", res.Frames, float64(res.Frames)/res.Elapsed.Seconds())
	fmt.Printf("  sessions/core:    %.1f (%d cores)\n", float64(cfg.Sessions)/float64(runtime.NumCPU()), runtime.NumCPU())
	fmt.Printf("  reconnects:       %d\n", res.Reconnects)
	fmt.Printf("  send errors:      %d\n", res.SendErrs)
	if *debugURL != "" {
		reportDaemon(*debugURL)
	}
}

// healthPayload mirrors obs.HealthPayload with the daemon's health shape.
type healthPayload struct {
	Health  session.DaemonHealth `json:"health"`
	Metrics []obs.Metric         `json:"metrics"`
}

// reportDaemon scrapes the daemon's /healthz and prints the acceptance
// numbers: shed/restart/quarantine counters and p99 ingest-to-emit lag.
func reportDaemon(base string) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rimloadgen: scrape failed:", err)
		return
	}
	defer resp.Body.Close()
	var hp healthPayload
	if err := json.NewDecoder(resp.Body).Decode(&hp); err != nil {
		fmt.Fprintln(os.Stderr, "rimloadgen: scrape decode failed:", err)
		return
	}
	metric := func(name string) (obs.Metric, bool) {
		for _, m := range hp.Metrics {
			if m.Name == name {
				return m, true
			}
		}
		return obs.Metric{}, false
	}
	// Counters that grew per-session labels snapshot as one entry per
	// child; summing them (children plus the "other" overflow) recovers
	// the fleet total a plain counter used to report.
	value := func(name string) float64 {
		var total float64
		for _, m := range hp.Metrics {
			if m.Name == name {
				total += m.Value
			}
		}
		return total
	}
	fmt.Printf("daemon (%s):\n", base)
	fmt.Printf("  sessions:         %d (%v), breaker %s\n", hp.Health.Sessions, hp.Health.ByState, hp.Health.Breaker)
	fmt.Printf("  shed:             %.0f\n", value("rim_shed_total"))
	fmt.Printf("  restarts:         %.0f\n", value("rim_session_restarts_total"))
	fmt.Printf("  quarantined:      %.0f\n", value("rim_session_quarantined_total"))
	fmt.Printf("  hop deadlines:    %.0f\n", value("rim_hop_deadline_exceeded_total"))
	fmt.Printf("  frames dropped:   %.0f\n", value("rim_session_frames_dropped_total"))
	if m, ok := metric("rim_stream_lag_seconds"); ok && m.Count > 0 {
		fmt.Printf("  p99 ingest→emit:  %.3fs (%d lag samples)\n", obs.QuantileFromBuckets(m, 0.99), m.Count)
	} else {
		fmt.Printf("  p99 ingest→emit:  n/a (no lag samples)\n")
	}
}
