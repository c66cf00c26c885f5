package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"rim/internal/array"
	"rim/internal/geom"
	"rim/internal/traj"
)

// TestCheckpointRestoreMatchesUninterrupted kills a streamer mid-walk,
// restores a fresh one from its checkpoint, feeds both the same remaining
// slots and requires the restored stream's estimates to match the
// uninterrupted golden run — the restore path replays the buffered window
// through the incremental engine, so the divergence bound is zero.
func TestCheckpointRestoreMatchesUninterrupted(t *testing.T) {
	rate := 100.0
	arr := array.NewLinear3(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.5)
	b.MoveDir(0, 1.2, 0.4)
	b.Pause(0.5)
	s := buildSeries(t, b.Build(), arr, 21)

	cfg := streamConfig(arr)
	golden, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}

	cut := s.NumSlots() / 2
	snap := make([][][]complex128, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
	push := func(st *Streamer, ti int) []Estimate {
		for a := 0; a < s.NumAnts; a++ {
			for tx := 0; tx < s.NumTx; tx++ {
				snap[a][tx] = s.H[a][tx][ti]
			}
		}
		es, err := st.PushMaskedCtx(context.Background(), snap, nil)
		if err != nil {
			t.Fatal(err)
		}
		return es
	}

	var goldenTail []Estimate
	for ti := 0; ti < s.NumSlots(); ti++ {
		es := push(golden, ti)
		if ti >= cut {
			goldenTail = append(goldenTail, es...)
		}
	}
	goldenTail = append(goldenTail, golden.Flush()...)

	// Second run: same prefix, checkpoint at the cut, "crash", restore.
	victim, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < cut; ti++ {
		push(victim, ti)
	}
	cp := victim.Checkpoint()
	restored, err := NewStreamerFromCheckpoint(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	var tail []Estimate
	for ti := cut; ti < s.NumSlots(); ti++ {
		tail = append(tail, push(restored, ti)...)
	}
	tail = append(tail, restored.Flush()...)

	if len(tail) != len(goldenTail) {
		t.Fatalf("restored run emitted %d estimates after the cut, golden %d", len(tail), len(goldenTail))
	}
	for i := range tail {
		if math.Abs(tail[i].T-goldenTail[i].T) > 1e-9 {
			t.Fatalf("estimate %d: T %v vs golden %v", i, tail[i].T, goldenTail[i].T)
		}
		if math.Abs(tail[i].Speed-goldenTail[i].Speed) > 1e-9 {
			t.Fatalf("estimate %d: speed %v vs golden %v", i, tail[i].Speed, goldenTail[i].Speed)
		}
		if tail[i].Degraded != goldenTail[i].Degraded {
			t.Fatalf("estimate %d: degraded %v vs golden %v", i, tail[i].Degraded, goldenTail[i].Degraded)
		}
	}
}

// TestCheckpointHealthSurvivesRestore round-trips the failure counters.
func TestCheckpointHealthSurvivesRestore(t *testing.T) {
	arr := array.NewLinear3(spacing)
	cfg := streamConfig(arr)
	rate := 100.0
	tr := traj.Line(rate, geom.Vec2{X: 10, Y: 0}, 0, 0, 0.4, 0.4)
	s := buildSeries(t, tr, arr, 29)
	st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	snap := make([][][]complex128, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
	for ti := 0; ti < 7; ti++ {
		for a := 0; a < s.NumAnts; a++ {
			for tx := 0; tx < s.NumTx; tx++ {
				snap[a][tx] = s.H[a][tx][ti]
			}
		}
		if _, err := st.PushMaskedCtx(context.Background(), snap, nil); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	st.failures = 3
	st.totalFails = 5
	st.lastErr = &healthError{msg: "synthetic", analysis: true}
	st.mu.Unlock()
	cp := st.Checkpoint()
	re, err := NewStreamerFromCheckpoint(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	h := re.Health()
	if h.ConsecutiveFailures != 3 || h.TotalFailures != 5 {
		t.Errorf("failure counters = %d/%d, want 3/5", h.ConsecutiveFailures, h.TotalFailures)
	}
	if h.LastError == nil || !errors.Is(h.LastError, ErrAnalysis) {
		t.Errorf("restored LastError = %v, want an analysis error", h.LastError)
	}
}

func TestCheckpointValidationRejectsTampering(t *testing.T) {
	arr := array.NewLinear3(spacing)
	cfg := streamConfig(arr)
	rate := 100.0
	tr := traj.Line(rate, geom.Vec2{X: 10, Y: 0}, 0, 0, 0.8, 0.4)
	s := buildSeries(t, tr, arr, 23)
	st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	snap := make([][][]complex128, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
	for ti := 0; ti < s.NumSlots()/2; ti++ {
		for a := 0; a < s.NumAnts; a++ {
			for tx := 0; tx < s.NumTx; tx++ {
				snap[a][tx] = s.H[a][tx][ti]
			}
		}
		if _, err := st.PushMaskedCtx(context.Background(), snap, nil); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name   string
		mutate func(cp *StreamCheckpoint)
	}{
		{"nil", func(cp *StreamCheckpoint) { *cp = StreamCheckpoint{} }},
		{"negative rate", func(cp *StreamCheckpoint) { cp.Rate = -1 }},
		{"NaN rate", func(cp *StreamCheckpoint) { cp.Rate = math.NaN() }},
		{"infinite rate", func(cp *StreamCheckpoint) { cp.Rate = math.Inf(1) }},
		{"rate past MaxRate", func(cp *StreamCheckpoint) { cp.Rate = 1e300 }},
		{"antenna mismatch", func(cp *StreamCheckpoint) { cp.NumAnts = 5 }},
		{"truncated buf row", func(cp *StreamCheckpoint) {
			if len(cp.Buf) > 0 && len(cp.Buf[0]) > 0 && len(cp.Buf[0][0]) > 0 {
				cp.Buf[0][0][0] = cp.Buf[0][0][0][:1]
			}
		}},
		{"frontier broken", func(cp *StreamCheckpoint) { cp.Dropped += 3 }},
		{"dead-window mismatch", func(cp *StreamCheckpoint) { cp.DeadWin = 1 }},
		{"recent index out of range", func(cp *StreamCheckpoint) { cp.RecentIdx = cp.DeadWin + 9 }},
		// Frontier fields a live streamer never produces. A hop factor of
		// 1<<40 would restore a stream that never analyzes again.
		{"hop factor 0", func(cp *StreamCheckpoint) { cp.HopFactor = 0 }},
		{"hop factor 5", func(cp *StreamCheckpoint) { cp.HopFactor = 5 }},
		{"hop factor 1<<40", func(cp *StreamCheckpoint) { cp.HopFactor = 1 << 40 }},
		{"negative pending", func(cp *StreamCheckpoint) { cp.Pending = -1 }},
		{"pending past buffer", func(cp *StreamCheckpoint) { cp.Pending = cp.Samples - cp.Dropped + 1 }},
		{"finalized before head", func(cp *StreamCheckpoint) { cp.Finalized = cp.Dropped - 1 }},
		{"finalized past newest", func(cp *StreamCheckpoint) { cp.Finalized = cp.Samples + 1 }},
	}
	for _, tc := range cases {
		cp := st.Checkpoint()
		tc.mutate(cp)
		if _, err := NewStreamerFromCheckpoint(cfg, cp); err == nil {
			t.Errorf("%s: tampered checkpoint accepted", tc.name)
		}
	}
}
