package core

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/faults"
	"rim/internal/geom"
	"rim/internal/rf"
	"rim/internal/traj"
	"rim/internal/trrs"
)

// buildFaultySeries is buildSeries with a fault model layered on top of the
// realistic receiver impairments.
func buildFaultySeries(t *testing.T, tr *traj.Trajectory, arr *array.Array, seed int64, fm *faults.Model) *csi.Series {
	t.Helper()
	cfg := rf.FastConfig()
	env := rf.NewEnvironment(cfg, geom.Vec2{}, geom.Vec2{X: 10, Y: 0}, nil)
	rcv := csi.RealisticReceiver(seed)
	rcv.Faults = fm
	s, err := csi.Collect(env, arr, tr, rcv).Process(true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// replayStream pushes a series through a Streamer slot by slot (like
// StreamSeries) but also returns the final Health, and fails the test on any
// non-analysis error.
func replayStream(t *testing.T, s *csi.Series, cfg StreamConfig) ([]Estimate, Health) {
	t.Helper()
	st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	var out []Estimate
	snap := make([][][]complex128, s.NumAnts)
	miss := make([]bool, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		for a := 0; a < s.NumAnts; a++ {
			for tx := 0; tx < s.NumTx; tx++ {
				snap[a][tx] = s.H[a][tx][ti]
			}
			miss[a] = s.Missing != nil && s.Missing[a][ti]
		}
		es, err := st.PushMasked(snap, miss)
		out = append(out, es...)
		if err != nil && !errors.Is(err, ErrAnalysis) {
			t.Fatalf("slot %d: non-analysis error: %v", ti, err)
		}
	}
	return append(out, st.Flush()...), st.Health()
}

// checkEstimatesSane fails on any NaN/Inf in the numeric estimate fields.
// HeadingBody is allowed to be NaN only for slots that are not clean
// translations (static slots and degraded placeholders carry no heading).
func checkEstimatesSane(t *testing.T, es []Estimate) {
	t.Helper()
	for i, e := range es {
		if math.IsNaN(e.Speed) || math.IsInf(e.Speed, 0) {
			t.Fatalf("estimate %d: Speed = %v", i, e.Speed)
		}
		if math.IsNaN(e.AngVel) || math.IsInf(e.AngVel, 0) {
			t.Fatalf("estimate %d: AngVel = %v", i, e.AngVel)
		}
		if math.IsNaN(e.Confidence) || e.Confidence < 0 || e.Confidence > 1 {
			t.Fatalf("estimate %d: Confidence = %v", i, e.Confidence)
		}
		if e.Kind == MotionTranslate && !e.Degraded && math.IsNaN(e.HeadingBody) {
			t.Fatalf("estimate %d: clean translate slot with NaN heading", i)
		}
	}
}

func streamedDistance(es []Estimate, rate float64) float64 {
	var d float64
	for _, e := range es {
		if e.Kind == MotionTranslate {
			d += e.Speed / rate
		}
	}
	return d
}

func TestStreamerShapeValidation(t *testing.T) {
	arr := array.NewLinear3(spacing)
	cfg := streamConfig(arr)
	if _, err := NewStreamer(cfg, 0, 3, 3, 30); err == nil {
		t.Error("rate 0 must error")
	}
	if _, err := NewStreamer(cfg, -100, 3, 3, 30); err == nil {
		t.Error("negative rate must error")
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 2 * trrs.MaxRate} {
		if _, err := NewStreamer(cfg, rate, 3, 3, 30); err == nil {
			t.Errorf("rate %v must error", rate)
		}
	}
	if _, err := NewStreamer(cfg, 100, 0, 3, 30); err == nil {
		t.Error("0 antennas must error")
	}
	if _, err := NewStreamer(cfg, 100, 3, 0, 30); err == nil {
		t.Error("0 tx must error")
	}
	if _, err := NewStreamer(cfg, 100, 3, 3, 0); err == nil {
		t.Error("0 tones must error")
	}
}

func TestPushShapeErrorIsAtomic(t *testing.T) {
	arr := array.NewLinear3(spacing)
	st, err := NewStreamer(streamConfig(arr), 100, 3, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Antenna 0 is well-shaped, antenna 1 has a wrong tone count: the push
	// must fail without committing antenna 0's rows.
	snap := make([][][]complex128, 3)
	for a := range snap {
		snap[a] = make([][]complex128, 3)
		for tx := range snap[a] {
			n := 30
			if a == 1 {
				n = 7
			}
			snap[a][tx] = make([]complex128, n)
		}
	}
	if _, err := st.Push(snap); err == nil {
		t.Fatal("mis-shaped snapshot must error")
	}
	if st.bufLen() != 0 || st.samples != 0 {
		t.Fatalf("rejected push left state behind: bufLen=%d samples=%d", st.bufLen(), st.samples)
	}
	if h := st.Health(); h.Slots != 0 || h.LossRate != 0 {
		t.Fatalf("rejected push counted in health: %+v", h)
	}
	// A bad missing-mask length must also be atomic.
	good := make([][][]complex128, 3)
	for a := range good {
		good[a] = make([][]complex128, 3)
		for tx := range good[a] {
			good[a][tx] = make([]complex128, 30)
		}
	}
	if _, err := st.PushMasked(good, make([]bool, 5)); err == nil {
		t.Fatal("wrong mask length must error")
	}
	if st.bufLen() != 0 {
		t.Fatal("rejected mask left state behind")
	}
	if _, err := st.Push(good); err != nil {
		t.Fatalf("well-formed push after rejections: %v", err)
	}
	if st.bufLen() != 1 {
		t.Fatalf("bufLen = %d after one good push", st.bufLen())
	}
}

func TestPushRejectsNaNAndGarbage(t *testing.T) {
	arr := array.NewLinear3(spacing)
	st, err := NewStreamer(streamConfig(arr), 100, 3, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	mk := func() [][][]complex128 {
		snap := make([][][]complex128, 3)
		for a := range snap {
			snap[a] = make([][]complex128, 3)
			for tx := range snap[a] {
				row := make([]complex128, 30)
				for k := range row {
					row[k] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				snap[a][tx] = row
			}
		}
		return snap
	}
	if _, err := st.Push(mk()); err != nil {
		t.Fatal(err)
	}
	// NaN frame on antenna 1: ingested without error, rejected as missing.
	bad := mk()
	bad[1][0][4] = cmplx.NaN()
	if _, err := st.Push(bad); err != nil {
		t.Fatalf("NaN snapshot must be rejected, not errored: %v", err)
	}
	// Garbage amplitude on antenna 2.
	bad = mk()
	bad[2][1][0] = complex(1e9, 0)
	if _, err := st.Push(bad); err != nil {
		t.Fatalf("garbage snapshot must be rejected, not errored: %v", err)
	}
	h := st.Health()
	if h.Slots != 3 {
		t.Fatalf("Slots = %d, want 3", h.Slots)
	}
	if h.CorruptSlots != 2 {
		t.Fatalf("CorruptSlots = %d, want 2", h.CorruptSlots)
	}
	want := 2.0 / 9.0 // 2 rejected antenna-samples out of 3 slots x 3 antennas
	if math.Abs(h.LossRate-want) > 1e-9 {
		t.Fatalf("LossRate = %v, want %v", h.LossRate, want)
	}
	// The committed buffer must contain no NaN (substitution happened).
	for a := range st.buf {
		for tx := range st.buf[a] {
			for _, row := range st.buf[a][tx] {
				if !csi.RowSane(row) {
					t.Fatal("insane row committed to the buffer")
				}
			}
		}
	}
}

func TestStreamerDeadAntennaDetection(t *testing.T) {
	// Antenna 2's RF chain is broken: its packets still arrive but carry
	// ~zero power. The streamer must flag it dead and fall back.
	arr := array.NewLinear3(spacing)
	st, err := NewStreamer(streamConfig(arr), 100, 3, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for ti := 0; ti < 150; ti++ {
		snap := make([][][]complex128, 3)
		for a := range snap {
			snap[a] = make([][]complex128, 3)
			amp := 1.0
			if a == 2 {
				amp = 1e-4
			}
			for tx := range snap[a] {
				row := make([]complex128, 30)
				for k := range row {
					row[k] = complex(rng.NormFloat64()*amp, rng.NormFloat64()*amp)
				}
				snap[a][tx] = row
			}
		}
		if _, err := st.PushMasked(snap, nil); err != nil && !errors.Is(err, ErrAnalysis) {
			t.Fatal(err)
		}
	}
	h := st.Health()
	if len(h.DeadAntennas) != 1 || h.DeadAntennas[0] != 2 {
		t.Fatalf("DeadAntennas = %v, want [2]", h.DeadAntennas)
	}
	if !h.Fallback {
		t.Error("Fallback must be set with a dead antenna")
	}
}

func TestStreamDegradedBurstyLossAndDeadChain(t *testing.T) {
	// The issue's acceptance scenario: a 10 m walk measured under
	// Gilbert-Elliott loss at 30% mean and one antenna dead from t=2s. The
	// stream must complete without panic, emit no NaN estimates, mark the
	// affected slots degraded, and keep the integrated distance within 3x
	// the clean-run error.
	if testing.Short() {
		t.Skip("long fault-injection scenario")
	}
	rate := 100.0
	arr := array.NewHexagonal(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.5)
	b.MoveDir(0, 10, 1.0)
	b.Pause(0.5)
	tr := b.Build()

	clean := buildFaultySeries(t, tr, arr, 42, nil)
	cfg := streamConfig(arr)
	cleanEs, cleanHealth := replayStream(t, clean, cfg)
	checkEstimatesSane(t, cleanEs)
	if len(cleanHealth.DeadAntennas) != 0 {
		t.Fatalf("clean run reports dead antennas: %v", cleanHealth.DeadAntennas)
	}
	cleanErr := math.Abs(streamedDistance(cleanEs, rate) - 10)

	fm := &faults.Model{
		Loss:     faults.NewGilbertElliott(0.3, 20),
		Dropouts: []faults.Dropout{{Antenna: 4, Start: 2}},
		Seed:     42,
	}
	if err := fm.Validate(arr.NumAntennas(), 2); err != nil {
		t.Fatal(err)
	}
	faulty := buildFaultySeries(t, tr, arr, 42, fm)
	es, h := replayStream(t, faulty, cfg)
	if len(es) != faulty.NumSlots() {
		t.Fatalf("emitted %d estimates for %d slots (stream must stay contiguous)", len(es), faulty.NumSlots())
	}
	checkEstimatesSane(t, es)

	// Loss accounting: roughly the injected 30% (both NICs lose packets).
	if h.LossRate < 0.15 || h.LossRate > 0.5 {
		t.Errorf("LossRate = %.2f, injected 0.30", h.LossRate)
	}
	// The dead chain must be detected.
	found := false
	for _, a := range h.DeadAntennas {
		if a == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("DeadAntennas = %v, want antenna 4 flagged", h.DeadAntennas)
	}
	// Slots after the chain death (plus detection lag) must be degraded.
	degradedLate := 0
	lateTotal := 0
	for _, e := range es {
		if e.T > 4 {
			lateTotal++
			if e.Degraded {
				degradedLate++
			}
		}
	}
	if lateTotal == 0 || float64(degradedLate)/float64(lateTotal) < 0.9 {
		t.Errorf("degraded %d/%d slots after t=4s (dead antenna active)", degradedLate, lateTotal)
	}
	// Bounded distance: within 3x the clean-run error (floored so a lucky
	// clean run cannot make the bound vacuous).
	faultyErr := math.Abs(streamedDistance(es, rate) - 10)
	bound := 3 * math.Max(cleanErr, 0.5)
	if faultyErr > bound {
		t.Errorf("distance error %.2f m under faults, clean %.2f m (bound %.2f m)", faultyErr, cleanErr, bound)
	}
	t.Logf("distance error: clean %.2f m, faulty %.2f m; loss %.2f; dead %v; failures %d",
		cleanErr, faultyErr, h.LossRate, h.DeadAntennas, h.TotalFailures)
}

func TestStreamInterferenceBurst(t *testing.T) {
	// A wideband interference burst crushes SNR mid-walk: the stream must
	// survive it and keep the overall distance bounded.
	rate := 100.0
	arr := array.NewLinear3(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.5)
	b.MoveDir(0, 2, 0.5)
	b.Pause(0.5)
	tr := b.Build()

	fm := &faults.Model{
		Bursts: []faults.Burst{{Start: 2, Duration: 0.5, SNRDropDB: 30}},
		Seed:   7,
	}
	s := buildFaultySeries(t, tr, arr, 7, fm)
	es, _ := replayStream(t, s, streamConfig(arr))
	if len(es) != s.NumSlots() {
		t.Fatalf("emitted %d estimates for %d slots", len(es), s.NumSlots())
	}
	checkEstimatesSane(t, es)
	d := streamedDistance(es, rate)
	if d < 0.5 || d > 4 {
		t.Errorf("distance %.2f m under a 0.5 s burst, truth 2 m", d)
	}
}
