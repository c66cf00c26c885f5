//go:build !race

// The steady-state allocation guard is meaningless under the race
// detector (instrumentation allocates), hence the build tag.

package trrs

import (
	"math/rand"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"rim/internal/csi"
)

// mallocsAtTwoProcs runs f hops times with GOMAXPROCS 2 and returns the
// process-wide malloc count over the run. testing.AllocsPerRun pins
// GOMAXPROCS to 1, under which a goroutine fan-out inside the hop would
// degenerate and hide its allocations; two Ps is the daemon's real
// configuration on a 2-core host.
//
// The count is process-wide, so it also sees the runtime's own lazy
// allocations, which are not the hop's doing:
//   - Dropping to one P (as AllocsPerRun does) frees the second P's timer
//     heap, and the first timer parked there again (the background
//     scavenger's sleep, say) reallocates it. warmSecondP refills it
//     before the count starts.
//   - The scheduler may start an OS thread, allocating its m and g0. A run
//     during which the thread count grew is measured again, up to three
//     times.
//
// A hop that allocates still fails every run.
func mallocsAtTwoProcs(hops int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	threads := pprof.Lookup("threadcreate")
	var mallocs uint64
	for attempt := 0; attempt < 3; attempt++ {
		warmSecondP(f)
		before := threads.Count()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for n := 0; n < hops; n++ {
			f()
		}
		runtime.ReadMemStats(&ms1)
		mallocs = ms1.Mallocs - ms0.Mallocs
		if mallocs == 0 || threads.Count() == before {
			break
		}
	}
	return mallocs
}

// warmSecondP parks a timer on the idle P: a goroutine that sleeps while
// the caller keeps the current P busy with f is run by the other P, so
// its timer heap is allocated outside the measured run.
func warmSecondP(f func()) {
	done := make(chan struct{})
	go func() {
		time.Sleep(time.Millisecond)
		close(done)
	}()
	f()
	<-done
}

// selfLags are the self-TRRS lags the allocation tests refresh every hop:
// the movement detector's fast and slow lags at 100 Hz.
var selfLags = [...]int{5, 25}

// refreshSelf refreshes the self-TRRS cache of every antenna at selfLags,
// as a hop's movement detection does through its EngineView.
func refreshSelf(inc *Incremental) {
	for a := 0; a < inc.numAnt; a++ {
		for _, lag := range selfLags {
			inc.selfWindow(a, lag)
		}
	}
}

// TestIncrementalHopAllocFree pins the zero-allocation contract of the
// streaming hot path: once the window geometry has stabilized, a full hop
// — append hop slots, drop hop slots, refresh the pair matrix and the
// self-TRRS cache — performs no allocation, at GOMAXPROCS 1 and 2 alike
// (the hop runs on the calling goroutine), in both plane precisions. This
// is what lets the 200 Hz steady state run GC-quiet.
func TestIncrementalHopAllocFree(t *testing.T) {
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		t.Run(prec.String(), func(t *testing.T) { incrementalHopAllocFree(t, prec) })
	}
}

func incrementalHopAllocFree(t *testing.T, prec Precision) {
	rng := rand.New(rand.NewSource(42))
	s := randomSeries(rng, 3, 2, 30, 400)
	const w, hop = 50, 50
	inc, err := NewIncrementalPrecision(s.Rate, s.NumAnts, s.NumTx, w, prec)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-extract the snapshots: the harness must not allocate either.
	snaps := make([][][][]complex128, s.NumSlots())
	for ti := range snaps {
		snaps[ti] = seriesSnapshot(s, ti)
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(snaps[ti]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inc.ExtendMatrix(0, 2); err != nil {
		t.Fatal(err)
	}

	k := 0
	hopOnce := func() {
		for n := 0; n < hop; n++ {
			if err := inc.Append(snaps[k%len(snaps)]); err != nil {
				t.Fatal(err)
			}
			k++
		}
		inc.DropFront(hop)
		if _, err := inc.ExtendMatrix(0, 2); err != nil {
			t.Fatal(err)
		}
		refreshSelf(inc)
	}
	// Warm-up: size the matrix ring, the plane store and the stale-row
	// scratch.
	for n := 0; n < 12; n++ {
		hopOnce()
	}
	if avg := testing.AllocsPerRun(20, hopOnce); avg != 0 {
		t.Fatalf("steady-state hop allocates %.1f times per op, want 0", avg)
	}
	if n := mallocsAtTwoProcs(20, hopOnce); n != 0 {
		t.Fatalf("20 steady-state hops at GOMAXPROCS 2 malloc %d times, want 0", n)
	}
}

// TestExtendMatrixReusesBacking pins the one-backing contract directly:
// with unchanged geometry ExtendMatrix returns the same matrix (no
// rebuild); across a hop the row of every carried absolute slot keeps its
// address, so no row was copied; and every hop's rows lie in the first
// build's backing under the same Matrix header, so nothing was allocated.
func TestExtendMatrixReusesBacking(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomSeries(rng, 2, 1, 12, 120)
	const w, hop = 10, 20
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(seriesSnapshot(s, ti)); err != nil {
			t.Fatal(err)
		}
	}
	m1, err := inc.ExtendMatrix(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m1again, err := inc.ExtendMatrix(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m1again {
		t.Fatal("unchanged geometry must return the maintained matrix, not a rebuild")
	}
	backing := map[*float64]bool{}
	for _, row := range m1.Vals {
		backing[&row[0]] = true
	}

	// rowAt maps each absolute slot of the window to its row's address.
	rowAt := func(m *Matrix) map[int]*float64 {
		at := map[int]*float64{}
		for t, row := range m.Vals {
			at[inc.start+t] = &row[0]
		}
		return at
	}
	prev := rowAt(m1)
	for h := 0; h < 8; h++ {
		for n := 0; n < hop; n++ {
			if err := inc.Append(seriesSnapshot(s, n)); err != nil {
				t.Fatal(err)
			}
		}
		inc.DropFront(hop)
		m, err := inc.ExtendMatrix(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m != m1 {
			t.Fatalf("hop %d: the Matrix header must be reused every hop", h)
		}
		cur := rowAt(m)
		carried := 0
		for r, addr := range cur {
			if old, ok := prev[r]; ok {
				carried++
				if addr != old {
					t.Fatalf("hop %d: carried slot %d moved: its row was copied", h, r)
				}
			}
			if !backing[addr] {
				t.Fatalf("hop %d: slot %d's row lies outside the first build's backing", h, r)
			}
		}
		if want := len(m.Vals) - hop; carried != want {
			t.Fatalf("hop %d: %d carried slots, want %d", h, carried, want)
		}
		prev = cur
	}
}

// TestExtendMatricesBackingBytes pins the matrix memory of the daemon's
// hexagonal walker: 6 antennas, the 18 pairs the pipeline requests (three
// reversed twins among them), W = 30 and a window that peaks at span +
// hop = 350 slots. The 15 swept pairs each hold exactly one backing of
// maxSlots rows of 2W+1 lags, grown to the largest window seen and never
// by doubling; the three twins hold no ring, only the engine's own arena
// of one reflected twin each at the current window.
func TestExtendMatricesBackingBytes(t *testing.T) {
	const w, span, hop = 30, 300, 50
	rng := rand.New(rand.NewSource(11))
	s := randomSeries(rng, 6, 1, 4, span+hop)
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []PairSpec{
		{1, 0}, {3, 4}, {2, 0}, {3, 5}, {3, 0}, {4, 0}, {3, 1}, {5, 0}, {3, 2},
		{2, 1}, {4, 5}, {4, 1}, {5, 1}, {4, 2}, {2, 5}, {0, 1}, {1, 2}, {2, 3},
	}
	k := 0
	extend := func() {
		for n := 0; n < hop; n++ {
			if err := inc.Append(seriesSnapshot(s, k%s.NumSlots())); err != nil {
				t.Fatal(err)
			}
			k++
		}
		if _, err := inc.ExtendMatrices(pairs); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: the window grows hop by hop up to span + hop, as a
	// streamer's does; after that each hop trims back to the span first.
	for inc.NumSlots() < span+hop {
		extend()
	}
	for h := 0; h < 6; h++ {
		inc.DropFront(hop)
		extend()
	}
	const swept, twins = 15, 3
	if len(inc.mats) != swept {
		t.Fatalf("%d maintained pairs, want the %d swept ones", len(inc.mats), swept)
	}
	held := 0
	for key, im := range inc.mats {
		if _, twin := inc.mats[PairSpec{I: key.J, J: key.I}]; twin && key.I != key.J {
			t.Fatalf("pair %v and its reversed twin both keep a ring", key)
		}
		held += cap(im.ring) * 8
	}
	if want := swept * (span + hop) * (2*w + 1) * 8; held != want {
		t.Fatalf("matrix backings hold %d bytes, want %d (one %d-row backing per swept pair)",
			held, want, span+hop)
	}
	_, matrices := inc.HeldBytes()
	if want := held + twins*(span+hop)*(2*w+1)*8; matrices != want {
		t.Fatalf("the engine holds %d matrix bytes, want %d (the rings and %d reflected twins of %d rows)",
			matrices, want, twins, span+hop)
	}
}

// TestExtendMatricesRingsSizedOnce pins the declared-peak sizing of a
// streamer-shaped warm-up: with SetPeakWindow(span + hop, hop) each of
// the 15 swept pairs among the daemon's 18 hexagonal pairs (the three
// reversed twins keep no ring) allocates its ring once, at span + hop
// rows, on its first build, and keeps that backing while the window grows
// hop by hop and then slides. The engine's own plane store holds the
// refresh reach (W here: no self-TRRS lag is asked) plus one hop. Raising
// the peak to span + 2·hop (a doubled hop) regrows each ring once, to
// exactly the new peak, and the plane store to W + 2·hop.
func TestExtendMatricesRingsSizedOnce(t *testing.T) {
	const w, span, hop = 30, 300, 50
	rng := rand.New(rand.NewSource(12))
	s := randomSeries(rng, 6, 1, 4, span+hop)
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		t.Fatal(err)
	}
	inc.SetPeakWindow(span+hop, hop)
	pairs := []PairSpec{
		{1, 0}, {3, 4}, {2, 0}, {3, 5}, {3, 0}, {4, 0}, {3, 1}, {5, 0}, {3, 2},
		{2, 1}, {4, 5}, {4, 1}, {5, 1}, {4, 2}, {2, 5}, {0, 1}, {1, 2}, {2, 3},
	}
	k := 0
	// backings maps each pair to every distinct ring backing it has held,
	// in order.
	backings := map[*incMat][]*float64{}
	extend := func(slots int) {
		for n := 0; n < slots; n++ {
			if err := inc.Append(seriesSnapshot(s, k%s.NumSlots())); err != nil {
				t.Fatal(err)
			}
			k++
		}
		if _, err := inc.ExtendMatrices(pairs); err != nil {
			t.Fatal(err)
		}
		for _, im := range inc.mats {
			if b := backings[im]; len(b) == 0 || b[len(b)-1] != &im.ring[0] {
				backings[im] = append(b, &im.ring[0])
			}
		}
	}
	check := func(stage string, allocs, rows int) {
		t.Helper()
		if len(inc.mats) != 15 {
			t.Fatalf("%s: %d pairs keep a ring, want the 15 swept ones", stage, len(inc.mats))
		}
		for key, im := range inc.mats {
			if n := len(backings[im]); n != allocs {
				t.Fatalf("%s: pair %v allocated %d ring backings, want %d", stage, key, n, allocs)
			}
			if got := len(im.ring) / (2*w + 1); got != rows {
				t.Fatalf("%s: pair %v ring holds %d rows, want %d", stage, key, got, rows)
			}
		}
	}
	for inc.NumSlots() < span+hop {
		extend(hop)
	}
	for h := 0; h < 6; h++ {
		inc.DropFront(hop)
		extend(hop)
	}
	check("warm-up", 1, span+hop)
	if c := planeSlots(inc, s); c != w+hop {
		t.Fatalf("plane store holds %d slots, want W + hop = %d", c, w+hop)
	}

	// As a streamer does, each hop trims the window back to the span
	// first, then the doubled hop arrives.
	inc.SetPeakWindow(span+2*hop, 2*hop)
	for h := 0; h < 4; h++ {
		inc.DropFront(inc.NumSlots() - span)
		extend(2 * hop)
	}
	check("doubled hop", 2, span+2*hop)
	if c := planeSlots(inc, s); c != w+2*hop {
		t.Fatalf("plane store holds %d slots after the raised peak, want W + 2·hop = %d", c, w+2*hop)
	}
}

// planeSlots is how many slots of s's shape the float64 planes inc holds
// have room for.
func planeSlots(inc *Incremental, s *csi.Series) int {
	planes, _ := inc.HeldBytes()
	return planes / (s.NumAnts * s.NumTx * s.NumSub * 2 * 8)
}

// TestExtendMatricesAllocFree extends the zero-allocation contract to the
// cross-pair batched refresh: once the window geometry and the batch
// scratch have warmed up, a hop that refreshes all three pairs and a
// reversed twin through ExtendMatrices, plus the self-TRRS cache, performs
// no allocation, at GOMAXPROCS 1 and 2 alike, in both plane precisions.
func TestExtendMatricesAllocFree(t *testing.T) {
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		t.Run(prec.String(), func(t *testing.T) { extendMatricesAllocFree(t, prec, nil) })
	}
}

// TestExtendMatricesLentAllocFree is TestExtendMatricesAllocFree with the
// planes in a lent store, lent before every hop and taken back after, as
// a streamer lends its pooled hop scratch. The steady-state hop still
// allocates nothing, and between hops the engine holds no plane bytes.
func TestExtendMatricesLentAllocFree(t *testing.T) {
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		t.Run(prec.String(), func(t *testing.T) { extendMatricesAllocFree(t, prec, &Scratch{}) })
	}
}

func extendMatricesAllocFree(t *testing.T, prec Precision, lend *Scratch) {
	rng := rand.New(rand.NewSource(43))
	s := randomSeries(rng, 3, 2, 30, 400)
	const w, hop = 50, 50
	inc, err := NewIncrementalPrecision(s.Rate, s.NumAnts, s.NumTx, w, prec)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []PairSpec{{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 2}, {I: 1, J: 0}}
	if lend != nil {
		// A lent store serves builds within the declared stride.
		inc.SetPeakWindow(s.NumSlots()+hop, hop)
	}

	snaps := make([][][][]complex128, s.NumSlots())
	for ti := range snaps {
		snaps[ti] = seriesSnapshot(s, ti)
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(snaps[ti]); err != nil {
			t.Fatal(err)
		}
	}
	refresh := func() {
		if lend != nil {
			inc.Lend(lend)
			defer inc.Lend(nil)
		}
		if _, err := inc.ExtendMatrices(pairs); err != nil {
			t.Fatal(err)
		}
		refreshSelf(inc)
	}
	refresh()

	k := 0
	hopOnce := func() {
		for n := 0; n < hop; n++ {
			if err := inc.Append(snaps[k%len(snaps)]); err != nil {
				t.Fatal(err)
			}
			k++
		}
		inc.DropFront(hop)
		refresh()
	}
	for n := 0; n < 12; n++ {
		hopOnce()
	}
	if planes, _ := inc.HeldBytes(); lend != nil && planes != 0 {
		t.Fatalf("between hops the engine holds %d plane bytes, want none of the lent store's", planes)
	}
	if avg := testing.AllocsPerRun(20, hopOnce); avg != 0 {
		t.Fatalf("steady-state batched hop allocates %.1f times per op, want 0", avg)
	}
	if n := mallocsAtTwoProcs(20, hopOnce); n != 0 {
		t.Fatalf("20 steady-state batched hops at GOMAXPROCS 2 malloc %d times, want 0", n)
	}
}

// TestDeriveLentAllocFree wants the derives of a hop through a warmed
// scratch to allocate nothing: the matrices come from its arena and the
// ring from its row buffer. It derives a lone pair, a lone reversed twin
// and a pair average holding a twin.
func TestDeriveLentAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ins := deriveCase(rng, []bool{false, true}, 30, 350, false)
	var scr Scratch
	run := func() {
		scr.Arena.Reset()
		for _, in := range [][]Input{ins[:1], ins[1:], ins} {
			if _, err := scr.Derive(in, 30); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("a lent derive allocates %.1f times, want 0", allocs)
	}
}
