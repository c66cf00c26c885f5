package core

import (
	"math"
	"sync"
	"testing"

	"rim/internal/array"
	"rim/internal/faults"
	"rim/internal/geom"
	"rim/internal/traj"
	"rim/internal/trrs"
)

// floatsIdentical treats two floats as equal when bitwise equal or both
// NaN (HeadingBody is NaN on non-translating slots by contract).
func floatsIdentical(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// requireSameEstimates asserts two estimate streams are identical in every
// field — the streaming-level golden-equivalence check.
func requireSameEstimates(t *testing.T, want, got []Estimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("estimate count %d, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		same := floatsIdentical(w.T, g.T) &&
			w.Moving == g.Moving &&
			w.Kind == g.Kind &&
			floatsIdentical(w.Speed, g.Speed) &&
			floatsIdentical(w.HeadingBody, g.HeadingBody) &&
			floatsIdentical(w.AngVel, g.AngVel) &&
			floatsIdentical(w.Confidence, g.Confidence) &&
			w.Degraded == g.Degraded
		if !same {
			t.Fatalf("estimate %d differs:\nrecompute oracle: %+v\nincremental:      %+v", i, w, g)
		}
	}
}

// equivStreamConfigs returns the incremental config under test and the
// full-recompute oracle config, identical otherwise, both on the given
// TRRS kernel.
func equivStreamConfigs(arr *array.Array, k trrs.Kernel) (incCfg, oracleCfg StreamConfig) {
	core := DefaultConfig(arr)
	core.WindowSeconds = 0.3
	core.V = 12
	core.Kernel = k
	incCfg = StreamConfig{Core: core, SpanSeconds: 1.5, HopSeconds: 0.25}
	oracleCfg = incCfg
	oracleCfg.recompute = true
	return incCfg, oracleCfg
}

// forEachKernel runs f as one subtest per TRRS kernel: the incremental
// streamer must match the recompute oracle bit for bit under the default
// vector kernel as well as under the sequential one.
func forEachKernel(t *testing.T, f func(t *testing.T, k trrs.Kernel)) {
	for _, k := range []trrs.Kernel{trrs.KernelSequential, trrs.KernelVector} {
		t.Run(k.String(), func(t *testing.T) { f(t, k) })
	}
}

// TestStreamIncrementalMatchesRecomputeClean: on a clean stop-and-go walk
// the incremental streamer must emit exactly the estimates of the
// full-recompute oracle.
func TestStreamIncrementalMatchesRecomputeClean(t *testing.T) {
	arr := array.NewLinear3(0.029)
	b := traj.NewBuilder(100, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.5)
	b.MoveDir(0, 0.8, 0.4)
	b.Pause(0.5)
	s := buildFaultySeries(t, b.Build(), arr, 11, nil)
	forEachKernel(t, func(t *testing.T, k trrs.Kernel) {
		incCfg, oracleCfg := equivStreamConfigs(arr, k)
		want, _ := replayStream(t, s, oracleCfg)
		got, _ := replayStream(t, s, incCfg)
		requireSameEstimates(t, want, got)
	})
}

// TestStreamIncrementalMatchesRecomputeFaulty: same equivalence under the
// PR 1 fault model — bursty loss (Missing-masked slots), a mid-stream dead
// antenna forcing the sub-array fallback, and corrupt frames. This pins
// the incremental engine's behavior across DropFront trims, engine-view
// subsets and degraded placeholders.
func TestStreamIncrementalMatchesRecomputeFaulty(t *testing.T) {
	arr := array.NewLinear3(0.029)
	b := traj.NewBuilder(100, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.5)
	b.MoveDir(0, 1.0, 0.4)
	b.Pause(0.5)
	fm := &faults.Model{
		Loss: faults.NewGilbertElliott(0.1, 5),
		Dropouts: []faults.Dropout{
			{Antenna: 2, Start: 0.9}, // permanent mid-stream chain death
		},
		Corrupt: faults.Corruption{Prob: 0.01, NaN: true},
		Seed:    41,
	}
	s := buildFaultySeries(t, b.Build(), arr, 23, fm)
	forEachKernel(t, func(t *testing.T, k trrs.Kernel) {
		incCfg, oracleCfg := equivStreamConfigs(arr, k)
		want, wantHealth := replayStream(t, s, oracleCfg)
		got, gotHealth := replayStream(t, s, incCfg)
		requireSameEstimates(t, want, got)
		if wantHealth.LossRate != gotHealth.LossRate ||
			wantHealth.CorruptSlots != gotHealth.CorruptSlots ||
			len(wantHealth.DeadAntennas) != len(gotHealth.DeadAntennas) {
			t.Fatalf("health diverged:\noracle:      %+v\nincremental: %+v", wantHealth, gotHealth)
		}
	})
}

// TestConcurrentPushAndHealth exercises the streamer's lock under the race
// detector: one goroutine pushes snapshots (triggering analyses) while
// others poll Health and Latency concurrently.
func TestConcurrentPushAndHealth(t *testing.T) {
	arr := array.NewLinear3(0.029)
	b := traj.NewBuilder(100, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.3)
	b.MoveDir(0, 0.5, 0.4)
	s := buildFaultySeries(t, b.Build(), arr, 5, nil)
	incCfg, _ := equivStreamConfigs(arr, trrs.KernelVector)
	st, err := NewStreamer(incCfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				h := st.Health()
				if h.LossRate < 0 || h.LossRate > 1 {
					t.Errorf("inconsistent health snapshot: %+v", h)
					return
				}
				_ = st.Latency()
			}
		}()
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
		if _, err := st.Push(snap); err != nil {
			t.Fatal(err)
		}
	}
	st.Flush()
	close(done)
	wg.Wait()
	if got := st.Health().Slots; got != s.NumSlots() {
		t.Fatalf("ingested %d slots, want %d", got, s.NumSlots())
	}
}

// TestConcurrentPushers: two goroutines interleave Push calls on one
// streamer; the lock must serialize whole snapshots so every slot is
// ingested exactly once (values interleave arbitrarily, counts must not).
func TestConcurrentPushers(t *testing.T) {
	arr := array.NewLinear3(0.029)
	b := traj.NewBuilder(100, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.6)
	s := buildFaultySeries(t, b.Build(), arr, 6, nil)
	incCfg, _ := equivStreamConfigs(arr, trrs.KernelVector)
	st, err := NewStreamer(incCfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	half := s.NumSlots() / 2
	push := func(from, to int) {
		snap := make([][][]complex128, s.NumAnts)
		for a := range snap {
			snap[a] = make([][]complex128, s.NumTx)
		}
		for ti := from; ti < to; ti++ {
			for a := 0; a < s.NumAnts; a++ {
				for tx := 0; tx < s.NumTx; tx++ {
					snap[a][tx] = s.H[a][tx][ti]
				}
			}
			if _, err := st.Push(snap); err != nil {
				t.Error(err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); push(0, half) }()
	go func() { defer wg.Done(); push(half, s.NumSlots()) }()
	wg.Wait()
	st.Flush()
	if got := st.Health().Slots; got != s.NumSlots() {
		t.Fatalf("ingested %d slots, want %d", got, s.NumSlots())
	}
}
