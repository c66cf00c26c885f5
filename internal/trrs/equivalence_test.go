package trrs

import (
	"math/rand"
	"testing"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/faults"
	"rim/internal/geom"
	"rim/internal/rf"
	"rim/internal/traj"
)

// The golden-equivalence suite: the parallel worker pool and the
// incremental engine must reproduce the serial oracle (BaseMatrixSerial)
// element-wise EXACTLY — same bits, not just within tolerance — on random
// CSI, on simulated walks, and on fault-degraded inputs. Any drift here
// means the fast paths are computing different math, not just faster math.

// requireIdentical asserts two matrices are bitwise equal.
func requireIdentical(t *testing.T, name string, want, got *Matrix) {
	t.Helper()
	if got.W != want.W || got.Rate != want.Rate {
		t.Fatalf("%s: metadata mismatch: W %d vs %d, Rate %v vs %v",
			name, got.W, want.W, got.Rate, want.Rate)
	}
	if len(got.Vals) != len(want.Vals) {
		t.Fatalf("%s: %d slots, want %d", name, len(got.Vals), len(want.Vals))
	}
	for ti := range want.Vals {
		if len(got.Vals[ti]) != len(want.Vals[ti]) {
			t.Fatalf("%s: row %d has %d cols, want %d", name, ti, len(got.Vals[ti]), len(want.Vals[ti]))
		}
		for c := range want.Vals[ti] {
			if got.Vals[ti][c] != want.Vals[ti][c] {
				t.Fatalf("%s: [%d][%d] = %v, want %v (must be bit-identical)",
					name, ti, c, got.Vals[ti][c], want.Vals[ti][c])
			}
		}
	}
}

// walkSeries acquires a simulated stop-and-go walk, optionally with the
// PR 1 fault model layered on (bursty loss + a degraded antenna), so the
// equivalence check covers Missing-masked and fault-stressed inputs.
func walkSeries(t *testing.T, faulty bool) *csi.Series {
	t.Helper()
	arr := array.NewLinear3(0.029)
	b := traj.NewBuilder(100, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.3)
	b.MoveDir(0, 0.4, 0.4)
	b.Pause(0.3)
	rcv := csi.RealisticReceiver(7)
	if faulty {
		rcv.Faults = &faults.Model{
			Loss: faults.NewGilbertElliott(0.15, 4),
			Dropouts: []faults.Dropout{
				{Antenna: 1, Start: 0.4, End: 0.7},
			},
			Seed: 99,
		}
	}
	env := rf.NewEnvironment(rf.FastConfig(), geom.Vec2{}, geom.Vec2{X: 10, Y: 0}, nil)
	s, err := csi.Collect(env, arr, b.Build(), rcv).Process(true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGoldenParallelEqualsSerialRandom(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		s := randomSeries(rng, 3, 2, 16, 70)
		e := NewEngine(s)
		for _, par := range []int{0, 2, 3, 7} {
			e.par = par
			for _, w := range []int{3, 11, 80} { // w > slots exercises clipping
				want := e.BaseMatrixSerial(0, 2, w)
				requireIdentical(t, "parallel", want, e.BaseMatrix(0, 2, w))
			}
		}
	}
}

func TestGoldenParallelEqualsSerialWalk(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		s := walkSeries(t, faulty)
		e := NewEngine(s)
		e.par = 4
		pairs := []PairSpec{{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 2}}
		ms := e.BaseMatrices(pairs, 25)
		for k, p := range pairs {
			want := e.BaseMatrixSerial(p.I, p.J, 25)
			requireIdentical(t, "bulk walk", want, ms[k])
		}
	}
}

func TestGoldenAmplitudeEngineParallel(t *testing.T) {
	s := walkSeries(t, false)
	e := NewAmplitudeEngine(s)
	e.par = 3
	requireIdentical(t, "amplitude", e.BaseMatrixSerial(0, 2, 15), e.BaseMatrix(0, 2, 15))
}

// seriesSnapshot extracts slot ti of a series in Streamer push shape.
func seriesSnapshot(s *csi.Series, ti int) [][][]complex128 {
	snap := make([][][]complex128, s.NumAnts)
	for a := 0; a < s.NumAnts; a++ {
		snap[a] = make([][]complex128, s.NumTx)
		for tx := 0; tx < s.NumTx; tx++ {
			snap[a][tx] = s.H[a][tx][ti]
		}
	}
	return snap
}

// windowEngine builds a batch engine over the sub-series [from, to) —
// the serial oracle for an incremental window.
func windowEngine(s *csi.Series, from, to int) *Engine {
	sub := &csi.Series{
		Rate:    s.Rate,
		NumAnts: s.NumAnts,
		NumTx:   s.NumTx,
		NumSub:  s.NumSub,
		H:       make([][][][]complex128, s.NumAnts),
	}
	for a := 0; a < s.NumAnts; a++ {
		sub.H[a] = make([][][]complex128, s.NumTx)
		for tx := 0; tx < s.NumTx; tx++ {
			sub.H[a][tx] = s.H[a][tx][from:to]
		}
	}
	return NewEngine(sub)
}

// TestGoldenIncrementalEqualsSerial drives an Incremental through a
// schedule of appends and front drops (the Streamer's access pattern) and
// asserts that after every step the maintained matrices are bit-identical
// to a serial batch engine built over exactly the current window.
func TestGoldenIncrementalEqualsSerial(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		s := walkSeries(t, faulty)
		const w = 12
		inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
		if err != nil {
			t.Fatal(err)
		}
		pairs := [][2]int{{0, 1}, {0, 2}, {1, 2}}
		start, next := 0, 0
		// Alternating appends and drops, with matrix queries interleaved
		// (including steps with no query, so a later query must catch up
		// across several invalidations at once).
		steps := []struct {
			app, drop int
			query     bool
		}{
			{app: 5, query: true},
			{app: 30, query: true},
			{app: 7, query: false},
			{app: 20, drop: 15, query: true},
			{app: 3, drop: 40, query: true}, // drop more than W past last query
			{app: 25, query: false},
			{app: 10, drop: 9, query: true},
			{drop: 5, query: true}, // drop-only step
		}
		for si, step := range steps {
			for k := 0; k < step.app && next < s.NumSlots(); k++ {
				if err := inc.Append(seriesSnapshot(s, next)); err != nil {
					t.Fatal(err)
				}
				next++
			}
			inc.DropFront(step.drop)
			start += step.drop
			if start > next {
				start = next
			}
			if !step.query {
				continue
			}
			oracle := windowEngine(s, start, next)
			for _, p := range pairs {
				got, err := inc.ExtendMatrix(p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				want := oracle.BaseMatrixSerial(p[0], p[1], w)
				requireIdentical(t, "incremental step", want, got)
				_ = si
			}
		}
	}
}

// TestGoldenEngineViewEqualsSubsetSeries checks the degraded-antenna
// fallback path: an EngineView over a surviving-antenna subset must match
// a batch engine built over the subset series (what the recompute oracle
// analyzes after a dead-antenna fallback).
func TestGoldenEngineViewEqualsSubsetSeries(t *testing.T) {
	s := walkSeries(t, true)
	const w = 10
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(seriesSnapshot(s, ti)); err != nil {
			t.Fatal(err)
		}
	}
	alive := []int{0, 2} // antenna 1 had the dropout
	view, err := inc.EngineView(alive)
	if err != nil {
		t.Fatal(err)
	}
	sub := &csi.Series{
		Rate: s.Rate, NumAnts: len(alive), NumTx: s.NumTx, NumSub: s.NumSub,
		H: make([][][][]complex128, len(alive)),
	}
	for k, a := range alive {
		sub.H[k] = s.H[a]
	}
	oracle := NewEngine(sub)
	requireIdentical(t, "subset view", oracle.BaseMatrixSerial(0, 1, w), view.BaseMatrixSerial(0, 1, w))
	// And the incremental matrix for the absolute pair matches too.
	got, err := inc.ExtendMatrix(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.BaseMatrixSerial(0, 1, w)
	if got.Vals[20][w] != want.Vals[20][w] {
		t.Fatalf("absolute-pair matrix disagrees with subset oracle: %v vs %v",
			got.Vals[20][w], want.Vals[20][w])
	}
}
