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

// TestIncrementalHopAllocFree pins the zero-allocation contract of the
// streaming hot path: once the window geometry has stabilized, a full hop
// — append hop slots, drop hop slots, refresh the pair matrix — performs
// no allocation, at GOMAXPROCS 1 and 2 alike (the hop runs on the calling
// goroutine), in both plane precisions. This is what lets the 200 Hz
// steady state run GC-quiet.
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
	}
	// Warm-up: size both ping-pong generations, the ring's growth, and
	// the stale-row scratch; run past one ring compaction.
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

// TestExtendMatrixReusesBacking pins the satellite contract directly: with
// unchanged geometry ExtendMatrix returns the same matrix (no rebuild),
// and across a hop the refreshed matrix reuses one of the two ping-pong
// backings instead of allocating fresh rows.
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

	// Two hops: generation 2 must land back in generation 0's backing.
	hopOnce := func() *Matrix {
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
		return m
	}
	m2 := hopOnce()
	if &m2.Vals[0][0] == &m1.Vals[0][0] {
		t.Fatal("consecutive generations must not share backing (callers hold the previous one)")
	}
	m3 := hopOnce()
	if &m3.Vals[0][0] != &m1.Vals[0][0] {
		t.Fatal("generation n+2 must reuse generation n's backing (ping-pong)")
	}
	if m3 != m1 {
		t.Fatal("generation n+2 must reuse generation n's Matrix header")
	}
}

// TestExtendMatricesAllocFree extends the zero-allocation contract to the
// cross-pair batched refresh: once the window geometry and the batch
// scratch have warmed up, a hop that refreshes all three pairs through
// ExtendMatrices performs no allocation, at GOMAXPROCS 1 and 2 alike, in
// both plane precisions.
func TestExtendMatricesAllocFree(t *testing.T) {
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		t.Run(prec.String(), func(t *testing.T) { extendMatricesAllocFree(t, prec) })
	}
}

func extendMatricesAllocFree(t *testing.T, prec Precision) {
	rng := rand.New(rand.NewSource(43))
	s := randomSeries(rng, 3, 2, 30, 400)
	const w, hop = 50, 50
	inc, err := NewIncrementalPrecision(s.Rate, s.NumAnts, s.NumTx, w, prec)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []PairSpec{{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 2}}

	snaps := make([][][][]complex128, s.NumSlots())
	for ti := range snaps {
		snaps[ti] = seriesSnapshot(s, ti)
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(snaps[ti]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inc.ExtendMatrices(pairs); err != nil {
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
		if _, err := inc.ExtendMatrices(pairs); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 12; n++ {
		hopOnce()
	}
	if avg := testing.AllocsPerRun(20, hopOnce); avg != 0 {
		t.Fatalf("steady-state batched hop allocates %.1f times per op, want 0", avg)
	}
	if n := mallocsAtTwoProcs(20, hopOnce); n != 0 {
		t.Fatalf("20 steady-state batched hops at GOMAXPROCS 2 malloc %d times, want 0", n)
	}
}
