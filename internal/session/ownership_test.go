package session

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/rf"
	"rim/internal/traj"
)

// walkSeries synthesizes a linear-array walker (fast RF config): 0.5 s
// still, 1.5 m out at 0.5 m/s, 0.5 s still.
func walkSeries(t *testing.T, rate float64) *csi.Series {
	t.Helper()
	cfg := rf.FastConfig()
	cfg.Seed = 3
	env := rf.NewEnvironment(cfg, geom.Vec2{}, geom.Vec2{X: 5}, nil)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 4}})
	b.Pause(0.5)
	b.MoveDir(0, 1.5, 0.5)
	b.Pause(0.5)
	s, err := csi.Collect(env, array.NewLinear3(0.029), b.Build(), csi.RealisticReceiver(3)).Process(true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// seriesFrame copies slot ti of s into a fresh frame; antenna 2 is
// reported missing without rows over a stretch mid-walk, so the stream
// holds its last good rows.
func seriesFrame(s *csi.Series, ti int) ([][][]complex128, []bool) {
	snap := make([][][]complex128, s.NumAnts)
	miss := make([]bool, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
		for tx := range snap[a] {
			snap[a][tx] = append([]complex128(nil), s.H[a][tx][ti]...)
		}
	}
	if ti >= 60 && ti < 90 {
		snap[2], miss[2] = nil, true
	}
	return snap, miss
}

// TestRegistryIngestOwnsNothing runs two sessions of core streams over the
// same frames through Registry.Ingest. After each of its frames has been
// pushed, one session's caller overwrites the frame's rows and loss mask.
// Its estimates, its live checkpoint and its pinned restart point must be
// bit-identical to the other session's.
func TestRegistryIngestOwnsNothing(t *testing.T) {
	const rate = 50
	s := walkSeries(t, rate)
	tmpl := core.StreamConfig{SpanSeconds: 3, HopSeconds: 0.5}
	tmpl.Core.WindowSeconds = 0.3
	factory, err := NewCoreFactory(CoreFactoryConfig{
		Template: tmpl,
		ArrayFor: func(int) (*array.Array, error) { return array.NewLinear3(0.029), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ests := map[string][]core.Estimate{}
	r, err := NewRegistry(RegistryConfig{Session: Config{
		Factory: factory,
		Queue:   4 * s.NumSlots(),
		Metrics: NewMetricsCap(obs.NewRegistry(), 0),
		Emit: func(id string, es []core.Estimate) {
			mu.Lock()
			ests[id] = append(ests[id], es...)
			mu.Unlock()
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Shutdown)
	spec := Spec{Rate: rate, NumAnts: s.NumAnts, NumTx: s.NumTx, NumSub: s.NumSub}
	sessions := map[string]*Session{}
	for _, id := range []string{"kept", "scribbled"} {
		if sessions[id], err = r.Open(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		for _, id := range []string{"kept", "scribbled"} {
			snap, miss := seriesFrame(s, ti)
			if err := r.Ingest(id, snap, miss); err != nil {
				t.Fatal(err)
			}
			if id != "scribbled" {
				continue
			}
			for deadline := time.Now().Add(10 * time.Second); sessions[id].Health().Slots <= ti; time.Sleep(50 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("frame %d never reached the stream", ti)
				}
			}
			for a := range snap {
				for _, row := range snap[a] {
					for k := range row {
						row[k] = complex(math.NaN(), 1)
					}
				}
				miss[a] = !miss[a]
			}
		}
	}
	for deadline := time.Now().Add(10 * time.Second); sessions["kept"].Health().Slots < s.NumSlots(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the kept session never pushed every frame")
		}
	}
	live := map[string]*core.StreamCheckpoint{}
	pinned := map[string]*core.StreamCheckpoint{}
	for id, sess := range sessions {
		live[id] = sess.Checkpoint().Stream
		sess.mu.Lock()
		stream := sess.stream
		sess.mu.Unlock()
		pinned[id] = stream.PinnedCheckpoint()
	}
	if pinned["kept"] == nil {
		t.Fatal("no hop pinned a restart point")
	}
	if !reflect.DeepEqual(live["kept"], live["scribbled"]) {
		t.Error("live checkpoints differ")
	}
	if !reflect.DeepEqual(pinned["kept"], pinned["scribbled"]) {
		t.Error("pinned restart points differ")
	}
	for _, id := range []string{"kept", "scribbled"} {
		if err := r.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want, got := ests["kept"], ests["scribbled"]
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("%d estimates, want %d (> 0)", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if math.Float64bits(w.T) != math.Float64bits(g.T) || math.Float64bits(w.Speed) != math.Float64bits(g.Speed) ||
			math.Float64bits(w.HeadingBody) != math.Float64bits(g.HeadingBody) ||
			math.Float64bits(w.AngVel) != math.Float64bits(g.AngVel) ||
			math.Float64bits(w.Confidence) != math.Float64bits(g.Confidence) ||
			w.Moving != g.Moving || w.Kind != g.Kind || w.Degraded != g.Degraded {
			t.Fatalf("estimate %d differs:\nkept:      %+v\nscribbled: %+v", i, w, g)
		}
	}
}
