package trrs

import (
	"fmt"
	"math"
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
	return windowEngineOf(s, from, to, PrecisionFloat64, KernelSequential)
}

// windowEngineOf is windowEngine at the given plane precision and kernel.
func windowEngineOf(s *csi.Series, from, to int, prec Precision, k Kernel) *Engine {
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
	e := NewEnginePrecision(sub, prec)
	e.SetKernel(k)
	return e
}

// incQuery selects how one schedule step reads the maintained matrices.
type incQuery int

const (
	queryNone  incQuery = iota // no read: the next read catches up across steps
	queryPair                  // per-pair ExtendMatrix calls
	queryBatch                 // one ExtendMatrices call, reversed twins included
)

// incStep is one step of an append/drop schedule.
type incStep struct {
	app, drop int
	query     incQuery
}

// goldenSteps is the schedule TestGoldenIncrementalEqualsSerial runs with
// W = 12: hops shorter and longer than W, drops shorter and longer than
// W, drop-only and append-only steps, and runs of steps with no read.
var goldenSteps = []incStep{
	{app: 5, query: queryPair},
	{app: 30, query: queryBatch},
	{app: 7},
	{app: 20, drop: 15, query: queryBatch},
	{app: 3, drop: 40, query: queryPair}, // drop more than W past last query
	{app: 25},
	{app: 10, drop: 9, query: queryBatch}, // drop shorter than W
	{drop: 5, query: queryBatch},          // drop-only step
	{app: 4, drop: 4, query: queryBatch},  // hop shorter than W
	{app: 6, drop: 6},
	{app: 6, drop: 6},
	{app: 5, drop: 5, query: queryBatch}, // three hops since the last read
	{app: 8, drop: 30, query: queryPair},
	{app: 12, query: queryBatch}, // append-only hop of exactly W
	{app: 20, drop: 20, query: queryBatch},
}

// goldenPairs are the per-pair reads; goldenBatch lists reversed twins
// after the pair they are reflected from, as the hexagonal array's group
// and ring pairs do.
var (
	goldenPairs = []PairSpec{{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 2}, {I: 1, J: 0}}
	goldenBatch = []PairSpec{{I: 0, J: 1}, {I: 1, J: 0}, {I: 2, J: 1}, {I: 0, J: 2}, {I: 1, J: 2}}
)

// TestGoldenIncrementalEqualsSerial drives an Incremental through a
// schedule of appends and front drops (the Streamer's access pattern) and
// asserts that after every read the maintained matrices are bit-identical
// to a serial batch engine of the same precision and kernel built over
// exactly the current window — per-pair reads and batched reads with
// reflected twins alike. The below-head runs declare a short stride, lend
// the planes a store for each read and add the pairs one read at a time,
// so reads land below the steady reach — pairs first requested late,
// stretches of appends longer than the stride, self-TRRS lags beyond W —
// and must hold the same bits.
func TestGoldenIncrementalEqualsSerial(t *testing.T) {
	belowHead := incOpts{peak: 80, stride: 6, lend: lendOtherShape, late: true, selfLags: []int{3, 15}}
	for _, faulty := range []bool{false, true} {
		s := walkSeries(t, faulty)
		for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
			for _, k := range []Kernel{KernelSequential, KernelVector} {
				name := fmt.Sprintf("faulty=%v/%v/%v", faulty, prec, k)
				t.Run(name, func(t *testing.T) {
					runIncSchedule(t, s, 12, prec, k, goldenSteps, goldenPairs, goldenBatch, incOpts{})
				})
				t.Run(name+"/below-head", func(t *testing.T) {
					if runIncSchedule(t, s, 12, prec, k, goldenSteps, goldenPairs, goldenBatch, belowHead) == 0 {
						t.Fatal("no read went below the planes' head")
					}
				})
			}
		}
	}
}

// incOpts varies how runIncSchedule drives the engine.
type incOpts struct {
	// stride > 0 declares SetPeakWindow(peak, stride), so a lent store
	// holds at most reach + stride slots and a read after a longer
	// stretch of appends normalizes into a one-off store.
	peak, stride int
	// lend lends the engine a plane store for every read and takes it
	// back after (see lendMode).
	lend lendMode
	// late makes the n-th read cover only the first n pairs of its list,
	// so later pairs are first built after the planes were trimmed.
	late bool
	// selfLags are self-TRRS lags every read also checks, through a
	// full-array EngineView's SelfSeries.
	selfLags []int
}

// lendMode selects whether runIncSchedule lends the planes a store, and
// what dirties it between reads.
type lendMode int

const (
	lendNone lendMode = iota
	// lendOtherShape lends a store that, between reads, an engine of
	// another shape (the same antennas and tx, half the tones, W = 4) and
	// the same precision refreshes into, so the backing is reused with
	// another layout.
	lendOtherShape
	// lendOtherPrec is lendOtherShape with the other engine in the other
	// precision.
	lendOtherPrec
)

// dirtier returns a function that lends ps to an engine for one refresh
// of snapshots shaped like like's but with half the tones, leaving its
// own values in the store.
func dirtier(t *testing.T, ps *PlaneStore, prec Precision, like *csi.Series) func() {
	t.Helper()
	other, err := NewIncrementalPrecision(100, like.NumAnts, like.NumTx, 4, prec)
	if err != nil {
		t.Fatal(err)
	}
	other.SetPeakWindow(64, 64)
	s := randomSeries(rand.New(rand.NewSource(99)), like.NumAnts, like.NumTx, max(like.NumSub/2, 1), 50)
	next := 0
	return func() {
		for n := 0; n < 7; n++ {
			if err := other.Append(seriesSnapshot(s, next%s.NumSlots())); err != nil {
				t.Fatal(err)
			}
			next++
		}
		other.DropFront(other.NumSlots() - 30)
		other.SetPlanes(ps)
		if _, err := other.ExtendMatrices([]PairSpec{{I: 0, J: 1}, {I: 1, J: 1}}); err != nil {
			t.Fatal(err)
		}
		other.SetPlanes(nil)
	}
}

// runIncSchedule runs steps on an Incremental over s and checks every
// read against BaseMatrixSerial (and every self-TRRS read against
// SelfSeries) on the window's batch engine. It returns how many reads
// went below the steady reach.
func runIncSchedule(t *testing.T, s *csi.Series, w int, prec Precision, k Kernel, steps []incStep, pairs, batch []PairSpec, opts incOpts) int {
	t.Helper()
	inc, err := NewIncrementalPrecision(s.Rate, s.NumAnts, s.NumTx, w, prec)
	if err != nil {
		t.Fatal(err)
	}
	inc.SetKernel(k)
	if opts.stride > 0 {
		inc.SetPeakWindow(opts.peak, opts.stride)
	}
	var lent *PlaneStore
	var dirty func()
	if opts.lend != lendNone {
		lent = &PlaneStore{}
		other := prec
		if opts.lend == lendOtherPrec {
			other = map[Precision]Precision{
				PrecisionFloat64: PrecisionFloat32,
				PrecisionFloat32: PrecisionFloat64,
			}[prec]
		}
		dirty = dirtier(t, lent, other, s)
		dirty()
	}
	start, next, reads, below := 0, 0, 0, 0
	for si, step := range steps {
		for n := 0; n < step.app && next < s.NumSlots(); n++ {
			if err := inc.Append(seriesSnapshot(s, next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		inc.DropFront(step.drop)
		start = min(start+step.drop, next)
		var got []*Matrix
		var want []PairSpec
		switch step.query {
		case queryNone:
			continue
		case queryPair:
			want = pairs
		case queryBatch:
			want = batch
		}
		if reads++; opts.late {
			want = want[:min(reads, len(want))]
		}
		renorms := inc.Renormalized()
		if lent != nil {
			inc.SetPlanes(lent)
		}
		if step.query == queryPair {
			for _, p := range want {
				m, err := inc.ExtendMatrix(p.I, p.J)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, m)
			}
		} else if got, err = inc.ExtendMatrices(want); err != nil {
			t.Fatal(err)
		}
		oracle := windowEngineOf(s, start, next, prec, k)
		for n, p := range want {
			if got[n].I != p.I || got[n].J != p.J {
				t.Fatalf("step %d: matrix %d is pair (%d,%d), want (%d,%d)", si, n, got[n].I, got[n].J, p.I, p.J)
			}
			name := fmt.Sprintf("step %d pair (%d,%d)", si, p.I, p.J)
			requireIdentical(t, name, oracle.BaseMatrixSerial(p.I, p.J, w), got[n])
		}
		if len(opts.selfLags) > 0 {
			view, err := inc.EngineView(nil)
			if err != nil {
				t.Fatal(err)
			}
			for a := 0; a < s.NumAnts; a++ {
				for _, lag := range opts.selfLags {
					requireSameSeries(t, fmt.Sprintf("step %d self (%d, lag %d)", si, a, lag),
						oracle.SelfSeries(a, lag, 1), view.SelfSeries(a, lag, 1))
				}
			}
		}
		if inc.Renormalized() > renorms {
			below++
		}
		if lent != nil {
			inc.SetPlanes(nil)
			dirty()
		}
	}
	return below
}

// requireSameSeries fails unless got and want hold the same bits.
func requireSameSeries(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for n := range want {
		if math.Float64bits(got[n]) != math.Float64bits(want[n]) {
			t.Fatalf("%s: value %d = %v, want %v", name, n, got[n], want[n])
		}
	}
}

// FuzzIncrementalRefresh drives an Incremental through a fuzzer-chosen
// schedule of appends, drops and reads (per-pair or batched, over a
// fuzzer-chosen pair list with duplicates, reversed twins and self-pairs)
// and requires every read to be bit-identical to BaseMatrixSerial on a
// batch engine over the window. Each schedule byte is one step: bits 0–2
// append that many slots times two, bits 3–5 drop that many slots times
// three, bits 6–7 pick no read, a per-pair read or a batched read. The
// reach byte moves reads below the steady reach, where the engine
// normalizes into a one-off store: bit 0 declares a peak whose stride
// (bits 1–3) caps a lent store, bits 4–5 pick the lendMode (3 lends
// nothing), bit 6 adds the pairs one read at a time, and bit 7 also checks
// self-TRRS series at a lag inside and one beyond W. A lent store is
// dirtied between reads by an engine of another shape.
func FuzzIncrementalRefresh(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(0), []byte{0x47, 0x87, 0x9a, 0x03, 0x02, 0xb9, 0x4c}, []byte{0x01, 0x10, 0x21, 0x12})
	f.Add(int64(2), uint8(9), uint8(3), uint8(0), []byte{0x87, 0x87, 0xbf, 0x3f, 0x41, 0x80}, []byte{0x10, 0x01, 0x11, 0x20, 0x02})
	f.Add(int64(3), uint8(1), uint8(1), uint8(0), []byte{0x45, 0x1d, 0x92, 0x80, 0x7f, 0x86}, []byte{0x12, 0x21, 0x12})
	f.Add(int64(4), uint8(0), uint8(2), uint8(0), []byte{0x81, 0x89, 0x49, 0x08, 0x88}, []byte{0x00, 0x22})
	f.Add(int64(5), uint8(6), uint8(1), uint8(0xc3), []byte{0x87, 0x86, 0x07, 0x8f, 0x47, 0x8a, 0x87}, []byte{0x01, 0x12, 0x20, 0x10})
	f.Add(int64(6), uint8(11), uint8(2), uint8(0x40), []byte{0x87, 0x47, 0x06, 0x9f, 0x87, 0x4b}, []byte{0x21, 0x02, 0x11, 0x01})
	f.Fuzz(func(t *testing.T, seed int64, wB, modeB, reachB uint8, sched, pairBytes []byte) {
		if len(sched) == 0 || len(sched) > 24 || len(pairBytes) == 0 || len(pairBytes) > 8 {
			t.Skip()
		}
		const ants, slots = 3, 24 * 14
		w := int(wB % 16)
		prec := []Precision{PrecisionFloat64, PrecisionFloat32}[modeB&1]
		k := []Kernel{KernelSequential, KernelVector}[modeB>>1&1]
		pairs := make([]PairSpec, len(pairBytes))
		for n, b := range pairBytes {
			pairs[n] = PairSpec{I: int(b>>4) % ants, J: int(b&0xF) % ants}
		}
		steps := make([]incStep, len(sched))
		for n, b := range sched {
			steps[n] = incStep{app: 2 * int(b&7), drop: 3 * int(b>>3&7), query: incQuery(b>>6) % 3}
		}
		var opts incOpts
		if reachB&1 != 0 {
			opts.peak, opts.stride = 40, 1+int(reachB>>1&7)
		}
		opts.lend = lendMode(reachB>>4&3) % 3
		opts.late = reachB&0x40 != 0
		if reachB&0x80 != 0 {
			opts.selfLags = []int{w/2 + 1, w + 3}
		}
		s := randomSeries(rand.New(rand.NewSource(seed)), ants, 2, 6, slots)
		runIncSchedule(t, s, w, prec, k, steps, pairs, pairs, opts)
	})
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

// TestSelfSeriesCacheEqualsBatch checks the self-TRRS cache: SelfSeries
// on an EngineView, whose raw values come from the Incremental's cache,
// must be bit-identical to SelfSeries on a batch engine built over the
// same window and antennas, across an append/drop schedule in which the
// view cycles between the full array and dead-antenna subsets (so an
// antenna's cached series goes stale and is picked up again).
func TestSelfSeriesCacheEqualsBatch(t *testing.T) {
	s := walkSeries(t, true)
	views := [][]int{nil, {0, 2}, {2, 1}, {0}}
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		inc, err := NewIncrementalPrecision(s.Rate, s.NumAnts, s.NumTx, 12, prec)
		if err != nil {
			t.Fatal(err)
		}
		start, next := 0, 0
		for si, step := range goldenSteps {
			for n := 0; n < step.app && next < s.NumSlots(); n++ {
				if err := inc.Append(seriesSnapshot(s, next)); err != nil {
					t.Fatal(err)
				}
				next++
			}
			inc.DropFront(step.drop)
			start = min(start+step.drop, next)
			ants := views[si%len(views)]
			view, err := inc.EngineView(ants)
			if err != nil {
				t.Fatal(err)
			}
			if ants == nil {
				ants = []int{0, 1, 2}
			}
			oracle := subsetWindowEngine(s, start, next, ants, prec)
			for a := range ants {
				for _, lag := range []int{0, 1, 5, 25, 400} {
					for _, v := range []int{1, 4} {
						want, got := oracle.SelfSeries(a, lag, v), view.SelfSeries(a, lag, v)
						if len(got) != len(want) {
							t.Fatalf("%v step %d: %d slots, want %d", prec, si, len(got), len(want))
						}
						for ti := range want {
							if math.Float64bits(got[ti]) != math.Float64bits(want[ti]) {
								t.Fatalf("%v step %d antenna %d lag %d v %d: slot %d = %v, want %v",
									prec, si, ants[a], lag, v, ti, got[ti], want[ti])
							}
						}
					}
				}
			}
		}
	}
}

// subsetWindowEngine is the batch engine over slots [from, to) of the
// given antennas of s.
func subsetWindowEngine(s *csi.Series, from, to int, ants []int, prec Precision) *Engine {
	sub := &csi.Series{
		Rate: s.Rate, NumAnts: len(ants), NumTx: s.NumTx, NumSub: s.NumSub,
		H: make([][][][]complex128, len(ants)),
	}
	for k, a := range ants {
		sub.H[k] = make([][][]complex128, s.NumTx)
		for tx := range sub.H[k] {
			sub.H[k][tx] = s.H[a][tx][from:to]
		}
	}
	return NewEnginePrecision(sub, prec)
}
