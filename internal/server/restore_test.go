package server

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/experiments"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/rf"
	"rim/internal/session"
	"rim/internal/traj"
)

// tapStream records every estimate one session's stream incarnations
// emit and, when armed, panics once, on the first push after the given
// number of hops, instead of pushing the frame.
type tapStream struct {
	session.Stream
	tap *streamTap
}

type streamTap struct {
	mu        sync.Mutex
	ests      []core.Estimate
	hops      int
	panicHops int // 0: never panic
	fired     bool
	flushed   bool
}

// result returns the recorded estimates once the stream has flushed.
func (t *streamTap) result() ([]core.Estimate, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ests, t.flushed
}

func (t *tapStream) PushMaskedCtx(ctx context.Context, snap [][][]complex128, missing []bool) ([]core.Estimate, error) {
	t.tap.mu.Lock()
	fire := t.tap.panicHops > 0 && t.tap.hops == t.tap.panicHops && !t.tap.fired
	t.tap.fired = t.tap.fired || fire
	t.tap.mu.Unlock()
	if fire {
		panic("injected worker panic")
	}
	ests, err := t.Stream.PushMaskedCtx(ctx, snap, missing)
	t.tap.mu.Lock()
	t.tap.ests = append(t.tap.ests, ests...)
	if len(ests) > 0 {
		t.tap.hops++
	}
	t.tap.mu.Unlock()
	return ests, err
}

func (t *tapStream) Flush() []core.Estimate {
	ests := t.Stream.Flush()
	t.tap.mu.Lock()
	t.tap.ests = append(t.tap.ests, ests...)
	t.tap.flushed = true
	t.tap.mu.Unlock()
	return ests
}

// TestServerRestoresWorkerPanicFromPin runs two sessions over the same
// walk in one in-process daemon. One session's worker panics on the first
// push after its seventh hop, after the window has begun to slide; that
// frame is an extra one the producer sends it, so both sessions push the
// same walk. The supervisor must restore the session once, from the
// restart point its stream pinned at that hop, and the restored session
// must emit exactly the estimates of the uninterrupted one.
func TestServerRestoresWorkerPanicFromPin(t *testing.T) {
	const rate, crashHops = 50, 7
	s := restoreWalk(t, rate)
	// The pushes that complete a hop, from a streamer at the daemon's
	// stream settings.
	cfg := testConfig()
	cfg.DebugAddr = ""
	cfg.Queue = 4 * s.NumSlots()
	scfg := core.StreamConfig{SpanSeconds: cfg.Span, HopSeconds: cfg.Hop}
	scfg.Core.WindowSeconds = cfg.Window
	scfg.Core.Array = array.NewLinear3(experiments.Spacing)
	probe, err := core.NewStreamer(scfg, rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	crashAfter, hops := -1, 0
	for ti := 0; ti < s.NumSlots() && crashAfter < 0; ti++ {
		snap, miss := walkFrame(s, ti)
		if es, _ := probe.PushMasked(snap, miss); len(es) > 0 {
			if hops++; hops == crashHops {
				crashAfter = ti
			}
		}
	}
	if crashAfter < 0 || crashAfter+3*int(cfg.Hop*rate) > s.NumSlots() {
		t.Fatalf("hop %d lands at frame %d of %d: too late to test a restore", crashHops, crashAfter, s.NumSlots())
	}

	taps := map[string]*streamTap{"clean": {}, "crash": {panicHops: crashHops}}
	wrapStream = func(id string, st session.Stream) session.Stream { return &tapStream{Stream: st, tap: taps[id]} }
	t.Cleanup(func() { wrapStream = nil })
	srv, err := New(cfg, obs.NewTextLogger(io.Discard, slog.LevelInfo))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	spec := session.Spec{Rate: rate, NumAnts: s.NumAnts, NumTx: s.NumTx, NumSub: s.NumSub}
	if err := session.WriteWirePreamble(conn); err != nil {
		t.Fatal(err)
	}
	for id := range taps {
		if err := session.WriteOpen(conn, id, spec); err != nil {
			t.Fatal(err)
		}
	}
	send := func(id string, ti int) {
		snap, miss := walkFrame(s, ti)
		if err := session.WriteFrame(conn, id, snap, miss); err != nil {
			t.Fatal(err)
		}
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		send("clean", ti)
		send("crash", ti)
		if ti == crashAfter {
			send("crash", ti) // the frame the panic consumes
		}
	}
	await(t, 30*time.Second, "both sessions push every frame", func() bool {
		for id := range taps {
			sess := srv.registry.Get(id)
			if sess == nil || sess.Health().Slots != s.NumSlots() {
				return false
			}
		}
		return true
	})
	for id := range taps {
		if err := session.WriteClose(conn, id); err != nil {
			t.Fatal(err)
		}
	}
	await(t, 30*time.Second, "both sessions flush", func() bool {
		_, clean := taps["clean"].result()
		_, crash := taps["crash"].result()
		return clean && crash
	})

	if got := srv.metrics.Restores.Value(); got != 1 {
		t.Fatalf("Restores = %d, want 1", got)
	}
	if got := srv.metrics.Panics.Value(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	want, _ := taps["clean"].result()
	got, _ := taps["crash"].result()
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("restored session emitted %d estimates, want %d (> 0)", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if math.Float64bits(w.T) != math.Float64bits(g.T) || math.Float64bits(w.Speed) != math.Float64bits(g.Speed) ||
			math.Float64bits(w.HeadingBody) != math.Float64bits(g.HeadingBody) ||
			math.Float64bits(w.AngVel) != math.Float64bits(g.AngVel) ||
			math.Float64bits(w.Confidence) != math.Float64bits(g.Confidence) ||
			w.Moving != g.Moving || w.Kind != g.Kind || w.Degraded != g.Degraded {
			t.Fatalf("estimate %d differs:\nuninterrupted: %+v\nrestored:      %+v", i, w, g)
		}
	}
}

// restoreWalk synthesizes a linear-array walker (fast RF config): 0.5 s
// still, 1.5 m out and back at 0.5 m/s with 0.5 s pauses.
func restoreWalk(t *testing.T, rate float64) *csi.Series {
	t.Helper()
	rfc := rf.FastConfig()
	rfc.Seed = 5
	env := rf.NewEnvironment(rfc, geom.Vec2{}, geom.Vec2{X: 5}, nil)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 4}})
	b.Pause(0.5)
	b.MoveDir(0, 1.5, 0.5)
	b.Pause(0.5)
	b.MoveDir(math.Pi, 1.5, 0.5)
	b.Pause(0.5)
	s, err := csi.Collect(env, array.NewLinear3(experiments.Spacing), b.Build(), csi.RealisticReceiver(5)).Process(true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// walkFrame copies slot ti of s into a fresh frame.
func walkFrame(s *csi.Series, ti int) ([][][]complex128, []bool) {
	snap := make([][][]complex128, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
		for tx := range snap[a] {
			snap[a][tx] = append([]complex128(nil), s.H[a][tx][ti]...)
		}
	}
	return snap, make([]bool, s.NumAnts)
}
