package trrs

import (
	"math"
	"testing"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/geom"
	"rim/internal/rf"
	"rim/internal/traj"
)

// buildSeries runs a small end-to-end acquisition for tests.
func buildSeries(t *testing.T, tr *traj.Trajectory, arr *array.Array, rcfg csi.ReceiverConfig) *csi.Series {
	t.Helper()
	cfg := rf.FastConfig()
	env := rf.NewEnvironment(cfg, geom.Vec2{}, geom.Vec2{X: 10, Y: 0}, nil)
	s, err := csi.Collect(env, arr, tr, rcfg).Process(true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBaseSelfIsOne(t *testing.T) {
	arr := array.NewLinear3(0.029)
	b := traj.NewBuilder(100, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.2)
	e := NewEngine(buildSeries(t, b.Build(), arr, csi.ReceiverConfig{}))
	if k := e.Base(0, 0, 5, 5); math.Abs(k-1) > 1e-9 {
		t.Errorf("self TRRS = %v", k)
	}
	if e.Base(0, 0, -1, 5) != 0 || e.Base(0, 0, 5, 9999) != 0 {
		t.Error("out-of-range Base must be 0")
	}
	if e.Rate() != 100 || e.NumAntennas() != 3 {
		t.Error("engine metadata wrong")
	}
}

func TestBaseIsSymmetricInSnapshots(t *testing.T) {
	arr := array.NewLinear3(0.029)
	tr := traj.Line(100, geom.Vec2{X: 10, Y: 0}, 0, 0, 0.2, 0.4)
	e := NewEngine(buildSeries(t, tr, arr, csi.ReceiverConfig{}))
	// κ̄(i@t1, j@t2) = κ̄(j@t2, i@t1): inner-product magnitude symmetry.
	k1 := e.Base(0, 2, 10, 4)
	k2 := e.Base(2, 0, 4, 10)
	if math.Abs(k1-k2) > 1e-9 {
		t.Errorf("asymmetry: %v vs %v", k1, k2)
	}
}

func TestMatrixIndexing(t *testing.T) {
	m := &Matrix{W: 5, Rate: 100, Vals: make([][]float64, 3)}
	for i := range m.Vals {
		m.Vals[i] = make([]float64, 11)
	}
	m.Vals[1][m.Col(-2)] = 0.7
	if m.At(1, -2) != 0.7 {
		t.Error("At/Col disagree")
	}
	if m.Lag(0) != -5 || m.Lag(10) != 5 {
		t.Error("Lag conversion wrong")
	}
	if m.LagSeconds(10) != 0.1 {
		t.Errorf("LagSeconds = %v", m.LagSeconds(10))
	}
	if m.At(-1, 0) != 0 || m.At(0, 9) != 0 {
		t.Error("out-of-range At must be 0")
	}
	if m.NumSlots() != 3 {
		t.Error("NumSlots wrong")
	}
}

// TestAlignmentPeakAtExpectedLag is the central STAR check: moving a linear
// array along its axis, the TRRS matrix of the (leading, following) pair
// must peak at lag ≈ separation/speed.
func TestAlignmentPeakAtExpectedLag(t *testing.T) {
	rate := 100.0
	speed := 0.4
	sep := 0.058 // antenna 0 to antenna 2 of the linear array
	arr := array.NewLinear3(0.029)
	// Move along body +X: antenna 2 leads, antenna 0 follows antenna 2?
	// Pair (0,2): positive lag means antenna 0 retraces antenna 2 — the
	// array moves from 0 towards 2, i.e. along +X.
	tr := traj.Line(rate, geom.Vec2{X: 10, Y: 0}, 0, 0, 0.8, speed)
	e := NewEngine(buildSeries(t, tr, arr, csi.RealisticReceiver(21)))
	w := 30
	m := e.PairMatrix(0, 2, w, 20)
	wantLag := int(math.Round(sep / speed * rate)) // ≈ 15 slots

	// Vote over the steady-state region.
	hits, total := 0, 0
	lags, _ := m.ColumnMax()
	for ti := wantLag + 5; ti < m.NumSlots()-5; ti++ {
		total++
		if int(math.Abs(float64(lags[ti]-wantLag))) <= 2 {
			hits++
		}
	}
	if total == 0 {
		t.Fatal("no steady-state slots")
	}
	if frac := float64(hits) / float64(total); frac < 0.7 {
		t.Errorf("peak at expected lag %d in only %.0f%% of slots", wantLag, frac*100)
	}
}

func TestVirtualMassiveSharpensAlignment(t *testing.T) {
	// With noise, the V-averaged matrix should localize the true lag more
	// often than the single-snapshot matrix (Fig. 17's mechanism).
	rate := 100.0
	speed := 0.4
	arr := array.NewLinear3(0.029)
	tr := traj.Line(rate, geom.Vec2{X: 10, Y: 0}, 0, 0, 0.8, speed)
	rcfg := csi.ReceiverConfig{SNRdB: 12, PLLPhase: true, STOSlopeMax: 0.05, Seed: 33}
	e := NewEngine(buildSeries(t, tr, arr, rcfg))
	w := 30
	base := e.BaseMatrix(0, 2, w)
	boosted, err := VirtualMassive(base, 20)
	if err != nil {
		t.Fatal(err)
	}
	wantLag := int(math.Round(0.058 / speed * rate))

	score := func(m *Matrix) float64 {
		lags, _ := m.ColumnMax()
		hits, total := 0, 0
		for ti := wantLag + 5; ti < m.NumSlots()-5; ti++ {
			total++
			if int(math.Abs(float64(lags[ti]-wantLag))) <= 2 {
				hits++
			}
		}
		return float64(hits) / float64(total)
	}
	sBase, sBoost := score(base), score(boosted)
	if sBoost < sBase {
		t.Errorf("virtual massive did not help: base %.2f boosted %.2f", sBase, sBoost)
	}
	if sBoost < 0.6 {
		t.Errorf("boosted hit rate %.2f too low", sBoost)
	}
}

func TestVirtualMassiveVLE1IsCopy(t *testing.T) {
	m := &Matrix{W: 1, Rate: 10, Vals: [][]float64{{1, 2, 3}, {4, 5, 6}}}
	out, err := VirtualMassive(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for t1 := range m.Vals {
		for c := range m.Vals[t1] {
			if out.Vals[t1][c] != m.Vals[t1][c] {
				t.Fatal("V=1 must copy")
			}
		}
	}
	out.Vals[0][0] = 99
	if m.Vals[0][0] == 99 {
		t.Error("copy aliases source")
	}
}

func TestAverageMatrices(t *testing.T) {
	a := &Matrix{W: 1, Rate: 10, Vals: [][]float64{{1, 2, 3}}}
	b := &Matrix{W: 1, Rate: 10, Vals: [][]float64{{3, 4, 5}}}
	avg, err := AverageMatricesInto(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4}
	for c, v := range want {
		if avg.Vals[0][c] != v {
			t.Errorf("avg[0][%d] = %v", c, avg.Vals[0][c])
		}
	}
	if _, err := AverageMatricesInto(nil); err == nil {
		t.Error("empty average must error")
	}
}

// TestAverageMatricesValidation covers the mismatch cases that previously
// misindexed silently: differing W, Rate, slot counts and ragged rows.
func TestAverageMatricesValidation(t *testing.T) {
	ok := &Matrix{W: 1, Rate: 10, Vals: [][]float64{{1, 2, 3}}}
	cases := map[string]*Matrix{
		"window mismatch":     {W: 2, Rate: 10, Vals: [][]float64{{1, 2, 3, 4, 5}}},
		"rate mismatch":       {W: 1, Rate: 20, Vals: [][]float64{{1, 2, 3}}},
		"slot-count mismatch": {W: 1, Rate: 10, Vals: [][]float64{{1, 2, 3}, {4, 5, 6}}},
		"ragged row":          {W: 1, Rate: 10, Vals: [][]float64{{1, 2}}},
		"nil input":           nil,
	}
	for name, bad := range cases {
		if _, err := AverageMatricesInto(nil, ok, bad); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
	if _, err := AverageMatricesInto(nil, ok, ok); err != nil {
		t.Errorf("matching inputs must not error: %v", err)
	}
}

// TestVirtualMassiveValidation covers the malformed-matrix cases.
func TestVirtualMassiveValidation(t *testing.T) {
	if _, err := VirtualMassive(nil, 4); err == nil {
		t.Error("nil matrix must error")
	}
	ragged := &Matrix{W: 1, Rate: 10, Vals: [][]float64{{1, 2, 3}, {4, 5}}}
	if _, err := VirtualMassive(ragged, 4); err == nil {
		t.Error("ragged matrix must error")
	}
	if _, err := VirtualMassive(&Matrix{W: -1, Rate: 10}, 4); err == nil {
		t.Error("negative window must error")
	}
}

func TestSelfSeriesMovementSensitivity(t *testing.T) {
	// Stop-and-go: self-TRRS must be ~1 while static and drop while moving.
	rate := 100.0
	arr := array.NewLinear3(0.029)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(1.0)
	b.MoveDir(0, 0.5, 0.5)
	b.Pause(1.0)
	tr := b.Build()
	e := NewEngine(buildSeries(t, tr, arr, csi.RealisticReceiver(13)))
	lagSlots := 5 // 50 ms at 0.5 m/s → 2.5 cm displacement when moving
	s := e.SelfSeries(0, lagSlots, 10)
	if len(s) != e.NumSlots() {
		t.Fatalf("series length %d", len(s))
	}
	staticVal := s[50]         // mid first pause
	movingVal := s[150]        // mid movement
	staticVal2 := s[len(s)-30] // mid last pause
	// Both static segments must sit high; the second may be slightly lower
	// when the stop position falls in a channel fade (noisy unwrapping
	// makes sanitization a little less stable there).
	if staticVal < 0.9 || staticVal2 < 0.8 {
		t.Errorf("static self-TRRS = %v / %v, want ~1", staticVal, staticVal2)
	}
	if movingVal > staticVal-0.2 {
		t.Errorf("moving self-TRRS %v not clearly below static %v", movingVal, staticVal)
	}
}

func TestSelfSeriesLagBeyondTrace(t *testing.T) {
	arr := array.NewLinear3(0.029)
	b := traj.NewBuilder(100, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.05)
	e := NewEngine(buildSeries(t, b.Build(), arr, csi.ReceiverConfig{}))
	s := e.SelfSeries(0, 1000, 1)
	for _, v := range s {
		if v != 1 {
			t.Fatal("lag beyond trace must default to 1 (static)")
		}
	}
}

func TestPairMatrixShape(t *testing.T) {
	arr := array.NewLinear3(0.029)
	tr := traj.Line(100, geom.Vec2{X: 10, Y: 0}, 0, 0, 0.2, 0.4)
	e := NewEngine(buildSeries(t, tr, arr, csi.ReceiverConfig{}))
	m := e.PairMatrix(0, 1, 10, 6)
	if m.NumSlots() != e.NumSlots() {
		t.Errorf("slots = %d", m.NumSlots())
	}
	for _, row := range m.Vals {
		if len(row) != 21 {
			t.Fatal("row width != 2W+1")
		}
	}
	if m.I != 0 || m.J != 1 {
		t.Error("pair identity lost")
	}
}

// TestNewIncrementalRejectsBadRate: NaN, ±Inf and rates past MaxRate are
// errors, like zero and negative rates.
func TestNewIncrementalRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5, 1e300, 2 * MaxRate} {
		if _, err := NewIncrementalPrecision(rate, 3, 1, 10, PrecisionFloat32); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
	for _, rate := range []float64{1e-3, 200, MaxRate} {
		if _, err := NewIncremental(rate, 3, 1, 10); err != nil {
			t.Errorf("rate %v rejected: %v", rate, err)
		}
	}
}
