package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"testing"
	"time"

	"rim/internal/loadgen"
	"rim/internal/obs"
	"rim/internal/server"
)

// console runs an in-process daemon with cfg's settings on loopback, feeds
// it walkers replaying at 4x their CSI rate, and polls it the way
// `rimtop -once -json` does until ready holds for the snapshot.
func console(t *testing.T, cfg server.Config, sessions int, faultFrac float64, ready func(*snapshot) bool) *snapshot {
	t.Helper()
	cfg.Listen, cfg.DebugAddr = "127.0.0.1:0", "127.0.0.1:0"
	srv, err := server.New(cfg, obs.NewTextLogger(io.Discard, slog.LevelInfo))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := loadgen.Run(ctx, loadgen.Config{
			Addr: srv.Addr(), Sessions: sessions, Conns: 2, Duration: time.Minute,
			Rate: 50, FPS: 200, FaultFrac: faultFrac, Seed: 1,
		})
		done <- err
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("loadgen: %v", err)
		}
	}()

	client := &http.Client{Timeout: 5 * time.Second}
	for deadline := time.Now().Add(25 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		snap, err := poll(client, "http://"+srv.DebugAddr())
		if err != nil {
			t.Fatal(err)
		}
		if ready(snap) {
			return snap
		}
	}
	t.Fatalf("console never showed the expected fleet")
	return nil
}

// TestConsoleFleetPage: with one faulty walker in eight paging its own
// degraded objective, the console sorts that session first, shows /slo
// as available and keeps the fleet state ok.
func TestConsoleFleetPage(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.FailureThreshold, cfg.MaxRestarts = 2, 2
	cfg.SLOWindow, cfg.SLOInterval = 24*time.Second, 250*time.Millisecond
	cfg.SLODegradedTarget, cfg.SLOSessionDegradedTarget = 0.75, 0.99
	snap := console(t, cfg, 8, 0.125, func(s *snapshot) bool {
		return len(s.Sessions) > 0 && s.Sessions[0].SLOState == "page"
	})
	if !snap.SLOAvailable {
		t.Errorf("rimtop saw no /slo endpoint")
	}
	if snap.FleetState != "ok" {
		t.Errorf("fleet state %s, want ok", snap.FleetState)
	}
	rows := snap.Sessions
	if rows[0].DegradedRatio <= rows[len(rows)-1].DegradedRatio {
		t.Errorf("paging session %s (degraded %v) is not the most degraded (last row %v)",
			rows[0].ID, rows[0].DegradedRatio, rows[len(rows)-1].DegradedRatio)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Sessions []map[string]any }
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Sessions {
		_, lag := r["lag_p99_seconds"]
		_, budget := r["budget_remaining"]
		if !lag || !budget {
			t.Errorf("row %v lacks lag_p99_seconds or budget_remaining", r["id"])
		}
	}
}

// TestConsoleQualityAlert: with walker-0000's filter mis-tuned, the
// console sorts it first with its QUAL column at alert while the clean
// walkers read ok, and the header carries the runtime gauges.
func TestConsoleQualityAlert(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Fusion, cfg.MistuneSessionPrefix = "eskf", "walker-0000"
	snap := console(t, cfg, 4, 0, func(s *snapshot) bool {
		return len(s.Sessions) > 0 && s.Sessions[0].QualityState == "alert"
	})
	rows := snap.Sessions
	if rows[0].ID != "walker-0000" || rows[0].QualityOutsideFrac < 0.5 {
		t.Errorf("top row %s at %v outside the band, want walker-0000 at >= 0.5", rows[0].ID, rows[0].QualityOutsideFrac)
	}
	for _, r := range rows[1:] {
		if r.QualityState != "ok" {
			t.Errorf("clean row %s quality %q", r.ID, r.QualityState)
		}
	}
	if !(snap.Goroutines > 0 && snap.HeapBytes > 0) {
		t.Errorf("runtime header empty: goroutines %v, heap %v", snap.Goroutines, snap.HeapBytes)
	}
}
