package core

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/rf"
	"rim/internal/traj"
)

// benchStreamSeries builds a 4 s stop-and-go walk for streaming benchmarks.
func benchStreamSeries(b *testing.B) *csi.Series {
	b.Helper()
	arr := array.NewLinear3(0.029)
	bld := traj.NewBuilder(100, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	bld.Pause(1)
	bld.MoveDir(0, 2, 0.4)
	bld.Pause(1)
	env := rf.NewEnvironment(rf.FastConfig(), geom.Vec2{}, geom.Vec2{X: 10, Y: 0}, nil)
	s, err := csi.Collect(env, arr, bld.Build(), csi.RealisticReceiver(17)).Process(true)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// liveHeap returns the bytes of live heap objects after two collections
// (the second empties the sync.Pool victim caches, so pooled hop scratch
// shared across walkers is not counted).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// benchReplay streams s through a fresh Streamer per iteration and reports
// the throughput in slots/s and the streamer's live heap in MB, taken with
// the timer stopped after the last slot is pushed and before Flush, so
// while the walker is live. Each slot is pushed as a freshly allocated
// copy with one backing for all its rows, as the wire decoder hands a
// frame to the daemon's streamer, so the live heap counts the raw rows the
// window keeps reachable, not only the streamer's own state.
func benchReplay(b *testing.B, s *csi.Series, cfg StreamConfig) {
	b.Helper()
	var liveMB float64
	b.ResetTimer() // exclude the series synthesis
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
		if err != nil {
			b.Fatal(err)
		}
		snap := make([][][]complex128, s.NumAnts)
		for a := range snap {
			snap[a] = make([][]complex128, s.NumTx)
		}
		for ti := 0; ti < s.NumSlots(); ti++ {
			freshFrame(s, ti, snap)
			if _, err := st.Push(snap); err != nil && !errors.Is(err, ErrAnalysis) {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		liveMB = (float64(liveHeap()) - float64(before)) / 1e6
		b.StartTimer()
		st.Flush()
	}
	// Slots per second of wall time: the streaming throughput headline.
	b.ReportMetric(float64(s.NumSlots())*float64(b.N)/b.Elapsed().Seconds(), "slots/s")
	b.ReportMetric(liveMB, "live-MB/walker")
}

// freshFrame points snap at a freshly allocated copy of s's slot ti with
// one backing for all its rows, as the wire decoder makes a frame, and
// returns that backing.
func freshFrame(s *csi.Series, ti int, snap [][][]complex128) []complex128 {
	flat := make([]complex128, s.NumAnts*s.NumTx*s.NumSub)
	for a := range snap {
		for tx := range snap[a] {
			o := (a*s.NumTx + tx) * s.NumSub
			snap[a][tx] = flat[o : o+s.NumSub : o+s.NumSub]
			copy(snap[a][tx], s.H[a][tx][ti])
		}
	}
	return flat
}

// daemonLoopSeries synthesizes loops of the daemon benchmark's walker
// templates on arr under a numTx-antenna AP (fast RF config at 100 Hz,
// receiver seeded with seed): see loopSeries.
func daemonLoopSeries(tb testing.TB, arr *array.Array, numTx int, idle bool, loops int, seed int64) *csi.Series {
	tb.Helper()
	cfg := rf.FastConfig()
	cfg.NumTxAntennas = numTx
	return loopSeries(tb, arr, cfg, 100, idle, loops, seed)
}

// loopSeries synthesizes loops of the daemon benchmark's walker templates
// on arr under the RF config rfc, sampled at rate Hz. The walk loop is
// 0.5 s still, 0.75 m out at 0.5 m/s, 0.5 s still and back; the idle loop
// is 3.6 s still, a 0.2 m step at 0.5 m/s, 3.6 s still and the step back.
func loopSeries(tb testing.TB, arr *array.Array, rfc rf.Config, rate float64, idle bool, loops int, seed int64) *csi.Series {
	tb.Helper()
	env := rf.NewEnvironment(rfc, geom.Vec2{}, geom.Vec2{X: 5}, nil)
	bld := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 4}})
	pause, dist := 0.5, 0.75
	if idle {
		pause, dist = 3.6, 0.2
	}
	for loop := 0; loop < loops; loop++ {
		bld.Pause(pause)
		bld.MoveDir(0, dist, 0.5)
		bld.Pause(pause)
		bld.MoveDir(math.Pi, dist, 0.5)
	}
	s, err := csi.Collect(env, arr, bld.Build(), csi.RealisticReceiver(seed)).Process(true)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// daemonStreamConfig is the daemon's stream setting on arr: span 3 s, hop
// 0.5 s, lag window 0.3 s, default kernel and V.
func daemonStreamConfig(arr *array.Array) StreamConfig {
	cfg := StreamConfig{Core: DefaultConfig(arr), SpanSeconds: 3, HopSeconds: 0.5}
	cfg.Core.WindowSeconds = 0.3
	return cfg
}

// BenchmarkStreamerHexa replays two walk loops on the paper's setup — the
// hexagonal two-NIC array under a 3-tx AP — at the daemon's stream
// settings: the per-walker hop cost of the paper's own setup.
func BenchmarkStreamerHexa(b *testing.B) {
	arr := array.NewHexagonal(0.029)
	benchReplay(b, daemonLoopSeries(b, arr, 3, false, 2, 1), daemonStreamConfig(arr))
}

// BenchmarkStreamerHexaPaper replays two walk loops on the hexagonal array
// at the paper's operating point (§6.2.9): 200 Hz, 114 tones on a 3-tx AP
// (rf.DefaultConfig), W = 0.5 s and V = 30 (DefaultConfig), span 3 s and
// hop 0.5 s. Its slots/s and live MB per walker are the reference for the
// paper's per-walker CPU and memory figures.
func BenchmarkStreamerHexaPaper(b *testing.B) {
	arr := array.NewHexagonal(0.029)
	s := loopSeries(b, arr, rf.DefaultConfig(), 200, false, 2, 1)
	benchReplay(b, s, StreamConfig{Core: DefaultConfig(arr), SpanSeconds: 3, HopSeconds: 0.5})
}

// BenchmarkStreamerPair replays two walk loops on the pair array under a
// 1-tx AP at the daemon's stream settings: fleet-pair-walk's per-walker
// hop cost, where segment analysis dominates.
func BenchmarkStreamerPair(b *testing.B) {
	arr := array.NewPairArray(0.029)
	benchReplay(b, daemonLoopSeries(b, arr, 1, false, 2, 1), daemonStreamConfig(arr))
}

// BenchmarkStreamerPairIdle replays two idle loops (long stills, short
// steps) on the pair array under a 1-tx AP at the daemon's stream
// settings: fleet-pair-idle-eskf's per-walker hop cost, where most hops
// emit no moving slot.
func BenchmarkStreamerPairIdle(b *testing.B) {
	arr := array.NewPairArray(0.029)
	benchReplay(b, daemonLoopSeries(b, arr, 1, true, 2, 1), daemonStreamConfig(arr))
}

// BenchmarkStreamerRecompute replays a walk through the seed's
// full-window-recompute streamer (the test-only oracle path).
func BenchmarkStreamerRecompute(b *testing.B) {
	s := benchStreamSeries(b)
	cfg := StreamConfig{Core: DefaultConfig(array.NewLinear3(0.029)), recompute: true}
	benchReplay(b, s, cfg)
}

// BenchmarkStreamerIncremental replays the same walk through the serial
// incremental engine (the default).
func BenchmarkStreamerIncremental(b *testing.B) {
	s := benchStreamSeries(b)
	cfg := StreamConfig{Core: DefaultConfig(array.NewLinear3(0.029))}
	benchReplay(b, s, cfg)
}

// BenchmarkStreamerHopObserved is BenchmarkStreamerIncremental's replay with
// a live metrics registry attached — the cost of observability when it is
// switched on.
func BenchmarkStreamerHopObserved(b *testing.B) {
	s := benchStreamSeries(b)
	cfg := StreamConfig{Core: DefaultConfig(array.NewLinear3(0.029))}
	cfg.Core.Obs = obs.NewRegistry()
	benchReplay(b, s, cfg)
}
