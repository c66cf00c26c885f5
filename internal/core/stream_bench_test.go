package core

import (
	"errors"
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

func benchReplay(b *testing.B, s *csi.Series, cfg StreamConfig) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
		if err != nil {
			b.Fatal(err)
		}
		snap := make([][][]complex128, s.NumAnts)
		for a := range snap {
			snap[a] = make([][]complex128, s.NumTx)
		}
		for ti := 0; ti < s.NumSlots(); ti++ {
			for a := 0; a < s.NumAnts; a++ {
				for tx := 0; tx < s.NumTx; tx++ {
					snap[a][tx] = s.H[a][tx][ti]
				}
			}
			if _, err := st.Push(snap); err != nil && !errors.Is(err, ErrAnalysis) {
				b.Fatal(err)
			}
		}
		st.Flush()
	}
	// Slots per second of wall time: the streaming throughput headline.
	b.ReportMetric(float64(s.NumSlots())*float64(b.N)/b.Elapsed().Seconds(), "slots/s")
}

// BenchmarkStreamerRecompute replays a walk through the seed's serial
// full-window-recompute streamer (the oracle path).
func BenchmarkStreamerRecompute(b *testing.B) {
	s := benchStreamSeries(b)
	cfg := StreamConfig{Core: DefaultConfig(array.NewLinear3(0.029)), Recompute: true}
	cfg.Core.Parallelism = 1
	benchReplay(b, s, cfg)
}

// BenchmarkStreamerIncremental replays the same walk through the serial
// incremental engine (the default).
func BenchmarkStreamerIncremental(b *testing.B) {
	s := benchStreamSeries(b)
	cfg := StreamConfig{Core: DefaultConfig(array.NewLinear3(0.029))}
	benchReplay(b, s, cfg)
}

// BenchmarkStreamerHop is the hot-path baseline for the observability
// overhead guard (TestObsOverheadGuard at the repo root): the default
// incremental streamer with a nil registry, i.e. every instrumentation
// hook reduced to its nil check.
func BenchmarkStreamerHop(b *testing.B) {
	s := benchStreamSeries(b)
	cfg := StreamConfig{Core: DefaultConfig(array.NewLinear3(0.029))}
	benchReplay(b, s, cfg)
}

// BenchmarkStreamerHopObserved is the same replay with a live metrics
// registry attached — the cost of observability when it is switched on.
func BenchmarkStreamerHopObserved(b *testing.B) {
	s := benchStreamSeries(b)
	cfg := StreamConfig{Core: DefaultConfig(array.NewLinear3(0.029))}
	cfg.Core.Obs = obs.NewRegistry()
	benchReplay(b, s, cfg)
}
