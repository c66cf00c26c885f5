package trrs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rim/internal/csi"
	"rim/internal/obs"
	"rim/internal/obs/trace"
)

// Tests for the cross-pair batched build, the opt-in vector-shaped
// kernels, and float32 plane mode. The contracts, in order of strictness:
// the batched schedule is a pure reordering (bit-exact, pinned here and
// by the golden suites); the vector kernel agrees with the sequential
// kernel to 1e-12 relative; float32 planes agree with float64
// to 1e-5 relative at matrix level, with matched argmax lags on
// non-degenerate rows.

// requireTolerance asserts two matrices agree within rel relative
// tolerance, element-wise.
func requireTolerance(t *testing.T, name string, want, got *Matrix, rel float64) {
	t.Helper()
	if len(got.Vals) != len(want.Vals) {
		t.Fatalf("%s: %d slots, want %d", name, len(got.Vals), len(want.Vals))
	}
	for ti := range want.Vals {
		for c := range want.Vals[ti] {
			wv, gv := want.Vals[ti][c], got.Vals[ti][c]
			tol := rel * math.Max(math.Abs(wv), 1)
			if math.Abs(wv-gv) > tol {
				t.Fatalf("%s: [%d][%d] = %v, want %v (|diff| %g > %g)",
					name, ti, c, gv, wv, math.Abs(wv-gv), tol)
			}
		}
	}
}

// TestVectorKernelTolerance verifies the opt-in vector (lag-sweep) kernel
// against the sequential serial oracle at 1e-12 relative, over full
// matrices on random and walk CSI covering every tail class, and that the
// vector-kernel incremental engine is bit-identical to the vector-kernel
// batch engine.
func TestVectorKernelTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const w = 15
	for _, tc := range []struct {
		name string
		s    *csi.Series
	}{
		{"random30", randomSeries(rng, 3, 2, 30, 90)},
		{"random7", randomSeries(rng, 2, 1, 7, 60)}, // tones%4 != 0: masked tail
		{"walk", walkSeries(t, false)},
	} {
		seq := NewEngine(tc.s)
		vec := NewEngine(tc.s)
		vec.SetKernel(KernelVector)
		if vec.Kernel() != KernelVector {
			t.Fatal("SetKernel did not stick")
		}
		for _, pair := range [][2]int{{0, 1}, {1, 1}} {
			want := seq.BaseMatrixSerial(pair[0], pair[1], w)
			got := vec.BaseMatrixSerial(pair[0], pair[1], w)
			requireTolerance(t, tc.name+"-vector", want, got, 1e-12)
		}
		// Point queries fall back to the sequential kernel: bit-exact.
		if a, b := seq.Base(0, 1, 7, 3), vec.Base(0, 1, 7, 3); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: vector point query %x, want sequential %x", tc.name, b, a)
		}
	}

	s := randomSeries(rng, 3, 2, 30, 80)
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		t.Fatal(err)
	}
	inc.SetKernel(KernelVector)
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(seriesSnapshot(s, ti)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := inc.ExtendMatrix(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	vec := NewEngine(s)
	vec.SetKernel(KernelVector)
	requireIdentical(t, "incremental-vector", vec.BaseMatrixSerial(0, 2, w), got)
}

// TestKernelPrecisionParseRoundTrip pins the flag-string surface: every
// selector round-trips through Parse(String()), and junk is rejected.
func TestKernelPrecisionParseRoundTrip(t *testing.T) {
	for _, k := range []Kernel{KernelSequential, KernelVector} {
		got, err := ParseKernel(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKernel(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKernel("simd9000"); err == nil {
		t.Fatal("ParseKernel must reject unknown names")
	}
	if k, err := ParseKernel(""); err != nil || k != KernelVector {
		t.Fatal("empty kernel must default to vector")
	}
	for _, p := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		got, err := ParsePrecision(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePrecision("float16"); err == nil {
		t.Fatal("ParsePrecision must reject unknown names")
	}
	if p, err := ParsePrecision("f32"); err != nil || p != PrecisionFloat32 {
		t.Fatal("f32 shorthand must parse")
	}
}

// TestPrecisionFloat32Property is the testing/quick property suite of the
// float32 plane mode: on random CSI the float32 engine's base matrix
// agrees with the float64 engine's to 1e-5 relative, and on rows whose
// peak is non-degenerate (clear of its runner-up by more than twice the
// tolerance) both engines pick the same argmax lag.
func TestPrecisionFloat32Property(t *testing.T) {
	const w = 8
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSeries(rng, 2, 2, 30, 40)
		e64 := NewEngine(s)
		e32 := NewEnginePrecision(s, PrecisionFloat32)
		if e32.Precision() != PrecisionFloat32 {
			return false
		}
		m64 := e64.BaseMatrixSerial(0, 1, w)
		m32 := e32.BaseMatrixSerial(0, 1, w)
		for ti := range m64.Vals {
			row64, row32 := m64.Vals[ti], m32.Vals[ti]
			best, second, bi := -1.0, -1.0, 0
			for c := range row64 {
				tol := 1e-5 * math.Max(math.Abs(row64[c]), 1)
				if math.Abs(row64[c]-row32[c]) > tol {
					return false
				}
				if row64[c] > best {
					best, second, bi = row64[c], best, c
				} else if row64[c] > second {
					second = row64[c]
				}
			}
			// Non-degenerate peak: the float32 row must elect the same lag.
			if best-second > 2e-5*math.Max(best, 1) {
				b32, bi32 := -1.0, 0
				for c, v := range row32 {
					if v > b32 {
						b32, bi32 = v, c
					}
				}
				if bi32 != bi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPrecisionFloat32Incremental pins the float32 incremental engine to
// the float32 batch engine bit for bit (same arithmetic, different
// bookkeeping), through a slide with head drops.
func TestPrecisionFloat32Incremental(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := randomSeries(rng, 3, 2, 30, 120)
	const w = 10
	inc, err := NewIncrementalPrecision(s.Rate, s.NumAnts, s.NumTx, w, PrecisionFloat32)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Precision() != PrecisionFloat32 {
		t.Fatal("precision did not stick")
	}
	next, start := 0, 0
	for _, step := range []struct{ app, drop int }{{60, 0}, {30, 25}, {30, 28}} {
		for k := 0; k < step.app; k++ {
			if err := inc.Append(seriesSnapshot(s, next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		inc.DropFront(step.drop)
		start += step.drop
		got, err := inc.ExtendMatrix(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		oracle := windowEngine32(s, start, next)
		requireIdentical(t, "incremental-f32", oracle.BaseMatrixSerial(0, 2, w), got)
		// EngineView must expose the float32 planes for point queries.
		view, err := inc.EngineView(nil)
		if err != nil {
			t.Fatal(err)
		}
		a, b := view.Base(0, 2, 3, 1), oracle.Base(0, 2, 3, 1)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("f32 view Base %x, want %x", a, b)
		}
	}
}

// windowEngine32 is windowEngine at float32 precision.
func windowEngine32(s *csi.Series, from, to int) *Engine {
	return windowEngineOf(s, from, to, PrecisionFloat32, KernelSequential)
}

// TestExtendMatricesMatchesPerPair drives two identical Incrementals
// through the Streamer's hop pattern, refreshing one with the batched
// ExtendMatrices and the other pair by pair, and requires bit-identical
// matrices at every hop — plus the serial batch oracle over the window.
// Also covers the fast path (repeat call returns the same matrices) and
// duplicate pairs in the request.
func TestExtendMatricesMatchesPerPair(t *testing.T) {
	s := walkSeries(t, false)
	const w = 12
	mk := func() *Incremental {
		inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
		if err != nil {
			t.Fatal(err)
		}
		return inc
	}
	batched, perPair := mk(), mk()
	pairs := []PairSpec{{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 2}, {I: 0, J: 1}} // duplicate on purpose
	next, start := 0, 0
	for _, step := range []struct{ app, drop int }{{80, 0}, {25, 25}, {25, 25}, {10, 40}} {
		for k := 0; k < step.app && next < s.NumSlots(); k++ {
			snap := seriesSnapshot(s, next)
			if err := batched.Append(snap); err != nil {
				t.Fatal(err)
			}
			if err := perPair.Append(snap); err != nil {
				t.Fatal(err)
			}
			next++
		}
		batched.DropFront(step.drop)
		perPair.DropFront(step.drop)
		start += step.drop
		if start > next {
			start = next
		}

		got, err := batched.ExtendMatrices(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pairs) {
			t.Fatalf("ExtendMatrices returned %d matrices for %d pairs", len(got), len(pairs))
		}
		oracle := windowEngine(s, start, next)
		for k, p := range pairs {
			want, err := perPair.ExtendMatrix(p.I, p.J)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, "batched-vs-perpair", want, got[k])
			requireIdentical(t, "batched-vs-oracle", oracle.BaseMatrixSerial(p.I, p.J, w), got[k])
		}
		if got[0] != got[3] {
			t.Fatal("duplicate pair must share one matrix")
		}
		// Unchanged window: the fast path returns the same matrices.
		again, err := batched.ExtendMatrices(pairs[:3])
		if err != nil {
			t.Fatal(err)
		}
		for k := range again {
			if again[k] != got[k] {
				t.Fatalf("fast path rebuilt matrix %d", k)
			}
		}
	}

	// Out-of-range pair reports an error.
	if _, err := batched.ExtendMatrices([]PairSpec{{I: 0, J: 99}}); err == nil {
		t.Fatal("out-of-range pair must error")
	}
}

// TestExtendRowCounters pins what the refresh counters and trace events
// count on a steady hop of h = 20 slots over a T = 100, W = 10 window:
// per pair, the h new rows are filled in full, the trailing W rows sweep
// only their forward columns onto the new slots and the leading W rows
// only clear their columns into the dropped ones, so 2W + h rows are
// stale and T − 2W − h are reused. A reversed twin is reflected, so it
// counts as stale and reused like its source but fills no row.
func TestExtendRowCounters(t *testing.T) {
	const tSlots, w, h = 100, 10, 20
	rng := rand.New(rand.NewSource(5))
	s := randomSeries(rng, 2, 1, 8, tSlots+h)
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < tSlots; ti++ {
		if err := inc.Append(seriesSnapshot(s, ti)); err != nil {
			t.Fatal(err)
		}
	}
	pairs := []PairSpec{{I: 0, J: 1}, {I: 1, J: 0}}
	if _, err := inc.ExtendMatrices(pairs); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(64)
	inc.SetObs(reg)
	inc.SetTrace(rec)
	for ti := tSlots; ti < tSlots+h; ti++ {
		if err := inc.Append(seriesSnapshot(s, ti)); err != nil {
			t.Fatal(err)
		}
	}
	inc.DropFront(h)
	if _, err := inc.ExtendMatrices(pairs); err != nil {
		t.Fatal(err)
	}
	const stale = 2*w + h
	for name, want := range map[string]uint64{
		"rim_trrs_rows_filled_total": h,
		"rim_trrs_rows_stale_total":  2 * stale,
		"rim_trrs_rows_reused_total": 2 * (tSlots - stale),
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	extends, filled := 0, int64(0)
	for _, e := range rec.Snapshot() {
		switch e.Kind {
		case trace.KindTRRSExtend:
			extends++
			if e.A != tSlots-stale || e.B != stale {
				t.Errorf("trrs_extend pair %d: reused %d stale %d, want %d and %d", e.Frame, e.A, e.B, tSlots-stale, stale)
			}
		case trace.KindTRRSFill:
			filled += e.A
		}
	}
	if extends != 2 || filled != h {
		t.Errorf("%d trrs_extend events filling %d rows, want 2 filling %d", extends, filled, h)
	}
}

// TestBaseMatricesTelemetry pins what a bulk build reports, at one and
// two workers: the rows-filled counter grows by the computed pairs' rows
// only (the twin is reflected, the duplicate aliased, the self-pair's
// half band counts as its rows), the pool gauge reads the effective
// worker count, and exactly one trrs_fill event carries the build with
// Frame −1, A = rows computed and B = pairs requested.
func TestBaseMatricesTelemetry(t *testing.T) {
	const slots, w = 90, 7
	rng := rand.New(rand.NewSource(41))
	s := randomSeries(rng, 3, 2, 9, slots)
	pairs := []PairSpec{{I: 0, J: 1}, {I: 1, J: 0}, {I: 0, J: 1}, {I: 2, J: 2}}
	const computed = 2 // (0,1) and (2,2)
	for _, par := range []int{1, 2} {
		e := NewEngine(s)
		e.par = par
		reg := obs.NewRegistry()
		rec := trace.NewRecorder(16)
		e.SetObs(reg)
		e.SetTrace(rec)
		e.BaseMatrices(pairs, w)
		if got := reg.Counter("rim_trrs_rows_filled_total", "").Value(); got != computed*slots {
			t.Errorf("par %d: rim_trrs_rows_filled_total = %d, want %d", par, got, computed*slots)
		}
		if got := reg.Gauge("rim_trrs_pool_workers", "").Value(); got != float64(par) {
			t.Errorf("par %d: rim_trrs_pool_workers = %v, want %d", par, got, par)
		}
		var fills []trace.Event
		for _, ev := range rec.Snapshot() {
			if ev.Kind == trace.KindTRRSFill {
				fills = append(fills, ev)
			}
		}
		if len(fills) != 1 {
			t.Fatalf("par %d: %d trrs_fill events, want 1", par, len(fills))
		}
		if ev := fills[0]; ev.Frame != -1 || ev.A != computed*slots || ev.B != int64(len(pairs)) {
			t.Errorf("par %d: trrs_fill frame %d A %d B %d, want -1, %d, %d", par, ev.Frame, ev.A, ev.B, computed*slots, len(pairs))
		}
	}
}

// TestExtendMatricesErrorLeavesStateIntact requires a refresh that fails on
// an out-of-range pair to leave every listed pair's maintained matrix as
// it was, so the next refresh of a valid pair still brings it up to the
// current window instead of returning rows that were never filled.
func TestExtendMatricesErrorLeavesStateIntact(t *testing.T) {
	const w = 8
	rng := rand.New(rand.NewSource(43))
	s := randomSeries(rng, 3, 1, 9, 120)
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 80; ti++ {
		if err := inc.Append(seriesSnapshot(s, ti)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inc.ExtendMatrix(0, 1); err != nil {
		t.Fatal(err)
	}
	for ti := 80; ti < 120; ti++ {
		if err := inc.Append(seriesSnapshot(s, ti)); err != nil {
			t.Fatal(err)
		}
	}
	inc.DropFront(20)
	if _, err := inc.ExtendMatrices([]PairSpec{{I: 0, J: 1}, {I: 0, J: 5}}); err == nil {
		t.Fatal("out-of-range pair must error")
	}
	got, err := inc.ExtendMatrix(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "after-error", windowEngine(s, 20, 120).BaseMatrixSerial(0, 1, w), got)
}
