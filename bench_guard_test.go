package rim

import (
	"encoding/json"
	"flag"
	"math/cmplx"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"rim/internal/csi"
	"rim/internal/sigproc"
	"rim/internal/trrs"
)

var updateBench = flag.Bool("update-bench", false, "rewrite BENCH_trrs.json with this machine's measurements")

// benchBaseline is the committed TRRS throughput baseline. The fixture
// pins the workload (a Fast-scale random series and lag window); the
// recorded numbers document the machine the baseline was taken on so
// regressions are judged by ratios measured live on the running machine,
// never by absolute nanoseconds from someone else's hardware.
type benchBaseline struct {
	Fixture struct {
		Ants  int   `json:"ants"`
		Tx    int   `json:"tx"`
		Sub   int   `json:"sub"`
		Slots int   `json:"slots"`
		W     int   `json:"w"`
		Seed  int64 `json:"seed"`
	} `json:"fixture"`
	Baseline struct {
		Cores        int     `json:"cores"`
		SerialNsOp   float64 `json:"serial_ns_op"`
		ParallelNsOp float64 `json:"parallel_ns_op"`
		Speedup      float64 `json:"speedup"`
	} `json:"baseline"`
	// Kernels compares one serial BaseMatrix build across kernel layouts:
	// the seed's AoS []complex128 arithmetic, the SoA default, and the
	// vector (lag-sweep, AVX2+FMA) kernel.
	Kernels struct {
		AoSNsOp       float64 `json:"aos_ns_op"`
		SoANsOp       float64 `json:"soa_ns_op"`
		VectorNsOp    float64 `json:"vector_ns_op"`
		SoASpeedup    float64 `json:"soa_speedup"`
		VectorSpeedup float64 `json:"vector_speedup"`
	} `json:"kernels"`
	// Batch compares building the three distinct pairs {(0,1), (0,2),
	// (1,2)} per-pair (three serial single-pair builds, the pre-batching
	// shape) against one BaseMatrices pass with the vector kernel, the
	// full fast path, all on one core.
	Batch struct {
		PerPairNsOp    float64 `json:"per_pair_ns_op"`
		BatchedVecNsOp float64 `json:"batched_vec_ns_op"`
		Speedup        float64 `json:"speedup"`
	} `json:"batch"`
	// Precision compares one serial build on float64 planes (vector
	// kernel) against float32 planes (half the memory traffic, twice the
	// SIMD lanes), plus the measured worst-case element error of the
	// float32 matrix against the float64 reference.
	Precision struct {
		F64NsOp   float64 `json:"f64_ns_op"`
		F32NsOp   float64 `json:"f32_ns_op"`
		Speedup   float64 `json:"speedup"`
		MaxRelErr float64 `json:"max_rel_err"`
	} `json:"precision"`
	// Symmetric compares building {(0,2), (2,0), (1,1)} naively (three full
	// serial matrices) against one BaseMatrices call that derives the
	// reversed and self-pair halves by Hermitian reflection, both on a
	// single core so the ratio is pure symmetry, not pool fan-out.
	Symmetric struct {
		NaiveNsOp float64 `json:"naive_ns_op"`
		DedupNsOp float64 `json:"dedup_ns_op"`
		Speedup   float64 `json:"speedup"`
	} `json:"symmetric"`
	// Hop is one steady-state streaming hop (append W, drop W, refresh the
	// pair matrix), which always runs serially. AllocsOp must be 0: the
	// hot path runs entirely in ring- and matrix-owned storage.
	Hop struct {
		NsOp     float64 `json:"ns_op"`
		AllocsOp float64 `json:"allocs_op"`
	} `json:"hop"`
	// Derived is one hexagonal hop's derived matrices at the daemon's
	// point (see derivedHop): the three-pass build (twins and pair
	// averages as matrices of their own, then the box filter in three row
	// passes) against one trrs.Scratch.Derive pass per matrix.
	Derived struct {
		ThreePassNsOp float64 `json:"three_pass_ns_op"`
		OnePassNsOp   float64 `json:"one_pass_ns_op"`
		Speedup       float64 `json:"speedup"`
	} `json:"derived"`
	Note string `json:"note"`
}

const benchBaselineFile = "BENCH_trrs.json"

// guardSeries rebuilds the baseline's deterministic random fixture.
func guardSeries(bl *benchBaseline) *csi.Series {
	rng := rand.New(rand.NewSource(bl.Fixture.Seed))
	f := bl.Fixture
	s := &csi.Series{
		Rate: 100, NumAnts: f.Ants, NumTx: f.Tx, NumSub: f.Sub,
		H: make([][][][]complex128, f.Ants),
	}
	for a := 0; a < f.Ants; a++ {
		s.H[a] = make([][][]complex128, f.Tx)
		for tx := 0; tx < f.Tx; tx++ {
			s.H[a][tx] = make([][]complex128, f.Slots)
			for t := 0; t < f.Slots; t++ {
				v := make([]complex128, f.Sub)
				for k := range v {
					v[k] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				s.H[a][tx][t] = v
			}
		}
	}
	return s
}

// aosGuard is the seed's array-of-structs TRRS arithmetic ([]complex128
// slot vectors through sigproc.Normalize and InnerProduct), kept live in
// the guard as the denominator of the SoA kernel comparison.
type aosGuard struct {
	numTx int
	h     [][][][]complex128 // [ant][tx][slot][tone], unit-normalized
}

func newAoSGuard(s *csi.Series) *aosGuard {
	g := &aosGuard{numTx: s.NumTx, h: make([][][][]complex128, s.NumAnts)}
	for a := 0; a < s.NumAnts; a++ {
		g.h[a] = make([][][]complex128, s.NumTx)
		for tx := 0; tx < s.NumTx; tx++ {
			g.h[a][tx] = make([][]complex128, s.NumSlots())
			for t := 0; t < s.NumSlots(); t++ {
				v := append([]complex128(nil), s.H[a][tx][t]...)
				sigproc.Normalize(v)
				g.h[a][tx][t] = v
			}
		}
	}
	return g
}

func (g *aosGuard) base(i, j, ti, tj int) float64 {
	sum := 0.0
	for tx := 0; tx < g.numTx; tx++ {
		ip := sigproc.InnerProduct(g.h[i][tx][ti], g.h[j][tx][tj])
		m := cmplx.Abs(ip)
		sum += m * m
	}
	return sum / float64(g.numTx)
}

func (g *aosGuard) matrix(i, j, w int) [][]float64 {
	slots := len(g.h[i][0])
	rows := make([][]float64, slots)
	for t := 0; t < slots; t++ {
		row := make([]float64, 2*w+1)
		for l := -w; l <= w; l++ {
			if t-l >= 0 && t-l < slots {
				row[l+w] = g.base(i, j, t, t-l)
			}
		}
		rows[t] = row
	}
	return rows
}

// measure returns the best-of-reps wall time of f.
func measure(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// guardWindow is how long guardPairs samples each comparison. Load from
// other processes on a shared host (a concurrent build, another package's
// tests) comes and goes over seconds, and the host's speed drifts by up to
// 2x, so a handful of pairs can land entirely inside a loaded spell; a
// window of a second reaches the quiet moments. The window is fixed: how
// long a comparison is sampled never depends on what it reads.
const guardWindow = time.Second

// guardPairs times oldF vs newF in back-to-back interleaved pairs, at
// least minPairs of them and for guardWindow, and returns each side's best
// time and the median of the per-pair ratios old/new. Interleaving lets
// both sides sample the same machine states, so best times taken from one
// run compare.
func guardPairs(minPairs int, oldF, newF func()) (oldBest, newBest time.Duration, median float64) {
	oldBest = time.Duration(1<<63 - 1)
	newBest = time.Duration(1<<63 - 1)
	var ratios []float64
	start := time.Now()
	for n := 0; n < minPairs || time.Since(start) < guardWindow; n++ {
		dOld := measure(1, oldF)
		dNew := measure(1, newF)
		oldBest = min(oldBest, dOld)
		newBest = min(newBest, dNew)
		ratios = append(ratios, float64(dOld)/float64(dNew))
	}
	sort.Float64s(ratios)
	return oldBest, newBest, ratios[len(ratios)/2]
}

// guardRatio returns the more favorable (larger) of two robust speedup
// estimators over guardPairs' sample: the median of per-pair ratios (each
// pair shares one instantaneous machine state, so the median is immune to
// drift and outliers on either side) and best-of/best-of (immune to a
// loaded neighbor's additive delay, which compresses every paired ratio
// toward 1). Floors built on this stay honest: a genuine regression
// depresses both estimators persistently, while noise rarely depresses
// both at once.
func guardRatio(minPairs int, oldF, newF func()) (ratio float64, oldBest, newBest time.Duration) {
	oldBest, newBest, ratio = guardPairs(minPairs, oldF, newF)
	return max(ratio, float64(oldBest)/float64(newBest)), oldBest, newBest
}

// guardHop builds the incremental fixture and returns a closure running one
// steady-state hop (append W, drop W, refresh), already warmed far enough
// to have settled the matrix ring and one CSI ring compaction.
func guardHop(tb testing.TB, s *csi.Series, w int) func() {
	tb.Helper()
	inc, err := trrs.NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		tb.Fatal(err)
	}
	snaps := make([][][][]complex128, s.NumSlots())
	for ti := range snaps {
		snap := make([][][]complex128, s.NumAnts)
		for a := 0; a < s.NumAnts; a++ {
			snap[a] = make([][]complex128, s.NumTx)
			for tx := 0; tx < s.NumTx; tx++ {
				snap[a][tx] = s.H[a][tx][ti]
			}
		}
		snaps[ti] = snap
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(snaps[ti]); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := inc.ExtendMatrix(0, 2); err != nil {
		tb.Fatal(err)
	}
	k := 0
	hopOnce := func() {
		for n := 0; n < w; n++ {
			if err := inc.Append(snaps[k%len(snaps)]); err != nil {
				tb.Fatal(err)
			}
			k++
		}
		inc.DropFront(w)
		if _, err := inc.ExtendMatrix(0, 2); err != nil {
			tb.Fatal(err)
		}
	}
	for n := 0; n < 12; n++ {
		hopOnce()
	}
	return hopOnce
}

// benchNote documents the committed baseline's machine and the honest
// reading of each section: the vector kernel and float32 planes are the
// real levers.
const benchNote = "Recorded on a 1-core CI container (Intel Xeon ~2.1 GHz AVX2+FMA, go1.24); on 1 core the worker pool degenerates to the serial loop so the parallel speedup is ~1x. kernels compares one serial build: AoS []complex128 reference vs the SoA default (bit-exact) vs the vector (lag-sweep AVX2) kernel; the vector kernel must hold >=1.5x. batch builds the three distinct pairs {(0,1),(0,2),(1,2)} per-pair vs one BaseMatrices pass on one core: speedup is the batched+vector fast path (floor 1.25x). precision is one serial build on float32 planes vs float64 (both vector-shaped), floor 1.3x with max element error <= 1e-5. symmetric is the Hermitian-reflection dedup of {(0,2),(2,0),(1,1)} on one core (floor 1.5x). hop is one steady-state incremental hop (append W, drop W, refresh), which always runs serially, and must stay at 0 allocs/op. derived is one hexagonal hop's derived matrices at the daemon's point (random 350x61 base matrices, V = 30: 6 pair averages, 3 reversed twins, 15 virtual-massive matrices) built the three-pass way against one trrs.Scratch.Derive pass per matrix, on one core (floor 2x where sigproc.VecSupported); its row was recorded on a 2-vCPU Xeon (2.1 GHz, AVX2, go1.24), the others on the 1-core container. TestBenchGuard re-measures all ratios live (vector/batch/precision floors apply only where sigproc.VecSupported and outside -race). Regenerate with: go test -run TestBenchGuard -update-bench ."

// TestBenchGuard is the benchmark regression guard of the TRRS engine. On
// the committed Fast-scale fixture it measures, live:
//
//   - parallel vs serial BaseMatrix (the pool must not lose to one core),
//   - the SoA kernel vs the seed's AoS arithmetic (no regression),
//   - the opt-in vector kernel at ≥1.5x where AVX2 is available,
//   - the vector-kernel bulk build of three pairs vs per-pair serial
//     builds (≥1.25x),
//   - float32 planes vs float64 (≥1.3x, max element error ≤1e-5),
//   - the Hermitian-dedup build of a symmetric pair set vs three naive
//     serial builds (must hold the recorded ≥1.5x on a single core),
//   - one hexagonal hop's derived matrices, one pass per matrix against
//     the three-pass build (≥2x where AVX2 is available),
//   - one steady-state incremental hop, which must not allocate
//     (skipped under the race detector, whose instrumentation allocates).
//
// Ratios are judged on this machine; absolute nanoseconds are only
// recorded for documentation. Run with -update-bench to re-record
// BENCH_trrs.json.
func TestBenchGuard(t *testing.T) {
	raw, err := os.ReadFile(benchBaselineFile)
	if err != nil {
		t.Fatalf("missing committed baseline: %v", err)
	}
	var bl benchBaseline
	if err := json.Unmarshal(raw, &bl); err != nil {
		t.Fatalf("corrupt %s: %v", benchBaselineFile, err)
	}
	if bl.Fixture.Slots <= 0 || bl.Fixture.W <= 0 || bl.Baseline.SerialNsOp <= 0 ||
		bl.Baseline.ParallelNsOp <= 0 || bl.Baseline.Speedup <= 0 {
		t.Fatalf("degenerate baseline: %+v", bl)
	}

	s := guardSeries(&bl)
	e := trrs.NewEngine(s)
	w := bl.Fixture.W
	const reps = 5

	var sinkM *trrs.Matrix
	var sinkMs []*trrs.Matrix
	var sinkRows [][]float64

	cores := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(cores)
	speedup, serial, parallel := guardRatio(reps,
		func() { sinkM = e.BaseMatrixSerial(0, 2, w) },
		func() { sinkM = e.BaseMatrix(0, 2, w) })
	t.Logf("cores=%d serial=%v parallel=%v speedup=%.2fx (baseline: %.2fx on %d cores)",
		cores, serial, parallel, speedup, bl.Baseline.Speedup, bl.Baseline.Cores)

	// Floor: parallel must never lose to serial beyond timer noise; with
	// real parallelism available it must clearly beat it.
	floor := 0.75
	if cores >= 4 {
		floor = 1.5
	} else if cores >= 2 {
		floor = 1.1
	}
	if speedup < floor {
		t.Errorf("parallel BaseMatrix speedup %.2fx below floor %.2fx on %d cores (serial %v, parallel %v)",
			speedup, floor, cores, serial, parallel)
	}

	// Kernel comparison: the SoA default vs the seed's AoS arithmetic.
	// This CPU class is FP-throughput-bound, so parity is the expectation;
	// the floor only catches a genuine kernel regression, not run noise.
	// Both are best-of/best-of over interleaved pairs: the host's speed
	// drifts by up to 2x over seconds, so best times taken at different
	// moments do not compare.
	ref := newAoSGuard(s)
	aos, soa, _ := guardPairs(reps,
		func() { sinkRows = ref.matrix(0, 2, w) },
		func() { sinkM = e.BaseMatrixSerial(0, 2, w) })
	eVec := trrs.NewEngine(s)
	eVec.SetKernel(trrs.KernelVector)
	sequential, vector, _ := guardPairs(reps,
		func() { sinkM = e.BaseMatrixSerial(0, 2, w) },
		func() { sinkM = eVec.BaseMatrixSerial(0, 2, w) })
	soaSpeedup := float64(aos) / float64(soa)
	vecSpeedup := float64(sequential) / float64(vector)
	t.Logf("kernels: aos=%v soa=%v vector=%v soa_speedup=%.2fx vector_speedup=%.2fx",
		aos, soa, vector, soaSpeedup, vecSpeedup)
	// Race instrumentation taxes the flat-plane kernels far more than the
	// AoS loop, so the cross-layout ratio is only meaningful without it
	// (the CI guard step runs un-instrumented).
	if !raceEnabled && soaSpeedup < 0.85 {
		t.Errorf("SoA kernel regressed to %.2fx of the AoS reference (aos %v, soa %v), floor 0.85x",
			soaSpeedup, aos, soa)
	}
	// The vector kernel is the perf lever; on AVX2 hardware it must hold
	// a clear win (measured ~3.3-3.8x; floor leaves noise headroom).
	if !raceEnabled && sigproc.VecSupported() && vecSpeedup < 1.5 {
		t.Errorf("vector kernel speedup %.2fx below the 1.5x floor (sequential %v, vector %v)",
			vecSpeedup, sequential, vector)
	}

	// The batch, float32 and symmetric sections measure one core: the
	// engine's batch pool sizes itself from GOMAXPROCS, so pin it to 1
	// until the hop section.
	runtime.GOMAXPROCS(1)

	// Bulk build of three distinct pairs on one core, vector kernel,
	// against three per-pair serial builds.
	bulkPairs := []trrs.PairSpec{{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 2}}
	perPairF := func() {
		for _, p := range bulkPairs {
			sinkM = e.BaseMatrixSerial(p.I, p.J, w)
		}
	}
	eBat := trrs.NewEngine(s)
	eBat.SetKernel(trrs.KernelVector)
	batchSpeedup, perPair, batchedVec := guardRatio(reps, perPairF,
		func() { sinkMs = eBat.BaseMatrices(bulkPairs, w) })
	t.Logf("batch: per_pair=%v batched_vec=%v speedup=%.2fx", perPair, batchedVec, batchSpeedup)
	if !raceEnabled && sigproc.VecSupported() && batchSpeedup < 1.25 {
		t.Errorf("batched+vector build speedup %.2fx below the 1.25x floor (per-pair %v, batched %v)",
			batchSpeedup, perPair, batchedVec)
	}

	// Float32 plane mode: throughput against the float64 vector path and
	// the live worst-case element error against the float64 reference.
	// The two sides are measured interleaved (f64, f32, f64, f32, ...) so
	// machine-level noise — frequency steps, neighbors on a shared CI
	// container — hits both distributions instead of skewing the ratio.
	e32 := trrs.NewEnginePrecision(s, trrs.PrecisionFloat32)
	var m32 *trrs.Matrix
	f32Speedup, f64t, f32 := guardRatio(3*reps,
		func() { sinkM = eVec.BaseMatrixSerial(0, 2, w) },
		func() { m32 = e32.BaseMatrixSerial(0, 2, w) })
	maxRelErr := 0.0
	refM := e.BaseMatrixSerial(0, 2, w)
	for ti := range refM.Vals {
		for c := range refM.Vals[ti] {
			d := refM.Vals[ti][c] - m32.Vals[ti][c]
			if d < 0 {
				d = -d
			}
			den := refM.Vals[ti][c]
			if den < 1 {
				den = 1
			}
			if rel := d / den; rel > maxRelErr {
				maxRelErr = rel
			}
		}
	}
	t.Logf("precision: f64=%v f32=%v speedup=%.2fx max_rel_err=%.2e", f64t, f32, f32Speedup, maxRelErr)
	if maxRelErr > 1e-5 {
		t.Errorf("float32 matrix error %.2e above the 1e-5 budget", maxRelErr)
	}
	if !raceEnabled && sigproc.VecSupported() && f32Speedup < 1.3 {
		t.Errorf("float32 plane speedup %.2fx below the 1.3x floor (f64 %v, f32 %v)",
			f32Speedup, f64t, f32)
	}

	// Derived matrices of one hexagonal hop, on one core like the hop
	// that builds them.
	dh := newDerivedHop(t)
	derivedSpeedup, threePass, onePass := guardRatio(reps,
		func() { dh.threePass() }, func() { dh.onePass() })
	t.Logf("derived: three_pass=%v one_pass=%v speedup=%.2fx", threePass, onePass, derivedSpeedup)
	if !raceEnabled && sigproc.VecSupported() && derivedSpeedup < 2 {
		t.Errorf("one-pass derive speedup %.2fx below the 2x floor (three-pass %v, one-pass %v)",
			derivedSpeedup, threePass, onePass)
	}

	// benchstat-style before/after summary of the headline comparisons.
	for _, row := range []struct {
		name     string
		old, new time.Duration
	}{
		{"BaseMatrix/sequential→vector", sequential, vector},
		{"BaseMatrices/per-pair→batched-vec", perPair, batchedVec},
		{"BaseMatrix/f64→f32", f64t, f32},
		{"Derived/three-pass→one-pass", threePass, onePass},
	} {
		t.Logf("benchstat: %-36s %12v → %12v   %+.1f%%",
			row.name, row.old.Round(time.Microsecond), row.new.Round(time.Microsecond),
			100*(float64(row.new)-float64(row.old))/float64(row.old))
	}

	// Symmetry deduplication: one core, so the win is pure reflection.
	symPairs := []trrs.PairSpec{{I: 0, J: 2}, {I: 2, J: 0}, {I: 1, J: 1}}
	naive, dedup, _ := guardPairs(reps,
		func() {
			for _, p := range symPairs {
				sinkM = e.BaseMatrixSerial(p.I, p.J, w)
			}
		},
		func() { sinkMs = e.BaseMatrices(symPairs, w) })
	symSpeedup := float64(naive) / float64(dedup)
	t.Logf("symmetric: naive=%v dedup=%v speedup=%.2fx", naive, dedup, symSpeedup)
	if symSpeedup < 1.5 {
		t.Errorf("symmetric-pair dedup speedup %.2fx below the 1.5x floor (naive %v, dedup %v)",
			symSpeedup, naive, dedup)
	}

	runtime.GOMAXPROCS(cores)

	// Steady-state hop: timed always; the zero-allocation contract is
	// checked only without the race detector.
	hopOnce := guardHop(t, s, w)
	hopNs := measure(reps, hopOnce)
	hopAllocs := bl.Hop.AllocsOp
	if !raceEnabled {
		hopAllocs = testing.AllocsPerRun(10, hopOnce)
		if hopAllocs != 0 {
			t.Errorf("steady-state incremental hop allocates %.1f times per op, want 0", hopAllocs)
		}
	}
	t.Logf("hop: %v/op, %.1f allocs/op (race=%v)", hopNs, hopAllocs, raceEnabled)

	_, _, _ = sinkM, sinkMs, sinkRows

	if *updateBench {
		bl.Baseline.Cores = cores
		bl.Baseline.SerialNsOp = float64(serial.Nanoseconds())
		bl.Baseline.ParallelNsOp = float64(parallel.Nanoseconds())
		bl.Baseline.Speedup = speedup
		bl.Kernels.AoSNsOp = float64(aos.Nanoseconds())
		bl.Kernels.SoANsOp = float64(soa.Nanoseconds())
		bl.Kernels.VectorNsOp = float64(vector.Nanoseconds())
		bl.Kernels.SoASpeedup = soaSpeedup
		bl.Kernels.VectorSpeedup = vecSpeedup
		bl.Batch.PerPairNsOp = float64(perPair.Nanoseconds())
		bl.Batch.BatchedVecNsOp = float64(batchedVec.Nanoseconds())
		bl.Batch.Speedup = batchSpeedup
		bl.Precision.F64NsOp = float64(f64t.Nanoseconds())
		bl.Precision.F32NsOp = float64(f32.Nanoseconds())
		bl.Precision.Speedup = f32Speedup
		bl.Precision.MaxRelErr = maxRelErr
		bl.Note = benchNote
		bl.Symmetric.NaiveNsOp = float64(naive.Nanoseconds())
		bl.Symmetric.DedupNsOp = float64(dedup.Nanoseconds())
		bl.Symmetric.Speedup = symSpeedup
		bl.Derived.ThreePassNsOp = float64(threePass.Nanoseconds())
		bl.Derived.OnePassNsOp = float64(onePass.Nanoseconds())
		bl.Derived.Speedup = derivedSpeedup
		bl.Hop.NsOp = float64(hopNs.Nanoseconds())
		bl.Hop.AllocsOp = hopAllocs
		out, err := json.MarshalIndent(&bl, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchBaselineFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", benchBaselineFile)
	}
}

// Ensure the committed baseline stays in sync with what the acceptance
// criteria promise: the Fast-scale 0.5 s window at 100 Hz, a recorded
// symmetric-build speedup of at least 1.5x, and an allocation-free hop.
func TestBenchBaselineFixtureShape(t *testing.T) {
	raw, err := os.ReadFile(benchBaselineFile)
	if err != nil {
		t.Fatal(err)
	}
	var bl benchBaseline
	if err := json.Unmarshal(raw, &bl); err != nil {
		t.Fatal(err)
	}
	if bl.Fixture.W != 50 || bl.Fixture.Slots < 2*bl.Fixture.W {
		t.Fatalf("fixture shape drifted: %+v", bl.Fixture)
	}
	if bl.Kernels.AoSNsOp <= 0 || bl.Kernels.SoANsOp <= 0 || bl.Kernels.VectorNsOp <= 0 {
		t.Errorf("kernel rows must be recorded: %+v", bl.Kernels)
	}
	if bl.Batch.PerPairNsOp <= 0 || bl.Batch.BatchedVecNsOp <= 0 {
		t.Errorf("batch rows must be recorded: %+v", bl.Batch)
	}
	if bl.Batch.Speedup < 1.25 {
		t.Errorf("recorded batched-build speedup %.2fx below the promised 1.25x", bl.Batch.Speedup)
	}
	if bl.Precision.Speedup < 1.3 {
		t.Errorf("recorded float32 speedup %.2fx below the promised 1.3x", bl.Precision.Speedup)
	}
	if bl.Precision.MaxRelErr <= 0 || bl.Precision.MaxRelErr > 1e-5 {
		t.Errorf("recorded float32 max error %.2e outside (0, 1e-5]", bl.Precision.MaxRelErr)
	}
	if bl.Symmetric.Speedup < 1.5 {
		t.Errorf("recorded symmetric speedup %.2fx below the promised 1.5x", bl.Symmetric.Speedup)
	}
	if bl.Derived.ThreePassNsOp <= 0 || bl.Derived.OnePassNsOp <= 0 {
		t.Errorf("derived rows must be recorded: %+v", bl.Derived)
	}
	if bl.Derived.Speedup < 2 {
		t.Errorf("recorded one-pass derive speedup %.2fx below the promised 2x", bl.Derived.Speedup)
	}
	if bl.Hop.NsOp <= 0 {
		t.Errorf("hop timing must be recorded: %+v", bl.Hop)
	}
	if bl.Hop.AllocsOp != 0 {
		t.Errorf("recorded hop allocs/op %.1f, the steady state must be allocation-free", bl.Hop.AllocsOp)
	}
	if bl.Note == "" {
		t.Error("baseline note must document the recording machine")
	}
}
