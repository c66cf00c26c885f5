package trrs

import (
	"math/rand"
	"testing"

	"rim/internal/csi"
)

// benchFixture is the Fast-scale fixture shared with the repo-root
// TestBenchGuard: 4 s at 100 Hz, W = 0.5 s, two tx chains, 30 tones.
func benchFixture(tb testing.TB) (*csi.Series, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	return randomSeries(rng, 3, 2, 30, 400), 50
}

// BenchmarkTRRSMatrixSerial is the single-threaded base-matrix computation
// with the default (sequential, bit-exact) SoA kernel — the reference the
// parallel and symmetry numbers are reported against.
func BenchmarkTRRSMatrixSerial(b *testing.B) {
	s, w := benchFixture(b)
	e := NewEngine(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMatrix = e.BaseMatrixSerial(0, 2, w)
	}
}

// BenchmarkTRRSMatrixAoSRef is the seed's array-of-structs layout and
// []complex128 kernel, reimplemented via the same aosRef the equivalence
// suite pins against — the denominator for the SoA kernel's speedup.
func BenchmarkTRRSMatrixAoSRef(b *testing.B) {
	s, w := benchFixture(b)
	ref := newAoSRef(s, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRows = ref.matrix(0, 2, w)
	}
}

// BenchmarkTRRSMatrixParallel is the same computation through the worker
// pool at GOMAXPROCS.
func BenchmarkTRRSMatrixParallel(b *testing.B) {
	s, w := benchFixture(b)
	e := NewEngine(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMatrix = e.BaseMatrix(0, 2, w)
	}
}

// BenchmarkTRRSMatricesBulk computes all three pairs of a linear array in
// one pool (the pipeline's construction pattern).
func BenchmarkTRRSMatricesBulk(b *testing.B) {
	s, w := benchFixture(b)
	e := NewEngine(s)
	pairs := []PairSpec{{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 2}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMatrices = e.BaseMatrices(pairs, w)
	}
}

// symmetricPairs is a workload where Hermitian deduplication bites: a
// reversed pair plus a self-pair, as produced by bidirectional pair
// requests and the §4.1 self-TRRS. Three full matrices from ~1.5 matrices
// of kernel work.
var symmetricPairs = []PairSpec{{I: 0, J: 2}, {I: 2, J: 0}, {I: 1, J: 1}}

// BenchmarkTRRSMatricesSymmetric builds the symmetric pair set with
// deduplication (single core, so the gain is pure symmetry, not pool
// fan-out).
func BenchmarkTRRSMatricesSymmetric(b *testing.B) {
	s, w := benchFixture(b)
	e := NewEngine(s)
	e.par = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMatrices = e.BaseMatrices(symmetricPairs, w)
	}
}

// BenchmarkTRRSMatricesSymmetricNaive is the same pair set with every
// matrix computed from scratch — what the build cost before symmetry
// deduplication.
func BenchmarkTRRSMatricesSymmetricNaive(b *testing.B) {
	s, w := benchFixture(b)
	e := NewEngine(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range symmetricPairs {
			sinkMatrix = e.BaseMatrixSerial(p.I, p.J, w)
		}
	}
}

// BenchmarkTRRSIncrementalHop measures one steady-state streaming hop:
// append hop slots, drop hop slots, refresh the pair matrix — the
// serial hot path whose allocs/op must be 0 (snapshots are
// pre-extracted so the harness stays out of the measurement). Compare with BenchmarkTRRSRecomputeHop, the per-hop cost
// the seed paid.
func BenchmarkTRRSIncrementalHop(b *testing.B) {
	s, w := benchFixture(b)
	const hop = 50
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		b.Fatal(err)
	}
	snaps := make([][][][]complex128, s.NumSlots())
	for ti := range snaps {
		snaps[ti] = seriesSnapshot(s, ti)
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(snaps[ti]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := inc.ExtendMatrix(0, 2); err != nil {
		b.Fatal(err)
	}
	// Settle the CSI ring and the matrix ring before timing.
	k := 0
	hopOnce := func() {
		for n := 0; n < hop; n++ {
			if err := inc.Append(snaps[k%len(snaps)]); err != nil {
				b.Fatal(err)
			}
			k++
		}
		inc.DropFront(hop)
		m, err := inc.ExtendMatrix(0, 2)
		if err != nil {
			b.Fatal(err)
		}
		sinkMatrix = m
	}
	for n := 0; n < 12; n++ {
		hopOnce()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hopOnce()
	}
}

// BenchmarkTRRSRecomputeHop is the seed's per-hop cost: renormalize the
// window and rebuild the full base matrix from scratch.
func BenchmarkTRRSRecomputeHop(b *testing.B) {
	s, w := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(s)
		sinkMatrix = e.BaseMatrixSerial(0, 2, w)
	}
}

var (
	sinkMatrix   *Matrix
	sinkMatrices []*Matrix
	sinkRows     [][]float64
)

// BenchmarkTRRSMatrixVector is the serial build with the opt-in vector
// (lag-sweep) kernel — AVX2+FMA assembly where supported.
func BenchmarkTRRSMatrixVector(b *testing.B) {
	s, w := benchFixture(b)
	e := NewEngine(s)
	e.SetKernel(KernelVector)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMatrix = e.BaseMatrixSerial(0, 2, w)
	}
}

// BenchmarkTRRSMatrixFloat32 is the serial build on float32 planes (the
// float32 sweep kernel: half the memory traffic, twice the lanes).
func BenchmarkTRRSMatrixFloat32(b *testing.B) {
	s, w := benchFixture(b)
	e := NewEnginePrecision(s, PrecisionFloat32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMatrix = e.BaseMatrixSerial(0, 2, w)
	}
}

// bulkPairs is the three-distinct-pair workload of a linear array, with
// no symmetry shortcuts — the cross-pair batching benchmark set.
var bulkPairs = []PairSpec{{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 2}}

// BenchmarkTRRSMatricesPerPair is the pre-batching build shape: each pair
// built in its own single-pair pass (sequential kernel, one core) — the
// denominator of the batched-build speedup.
func BenchmarkTRRSMatricesPerPair(b *testing.B) {
	s, w := benchFixture(b)
	e := NewEngine(s)
	e.par = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range bulkPairs {
			sinkMatrix = e.BaseMatrixSerial(p.I, p.J, w)
		}
	}
}

// BenchmarkTRRSMatricesBatched is the same three pairs through the
// cross-pair batched schedule (sequential kernel, one core) — isolates
// the layout/ordering effect from the kernel change.
func BenchmarkTRRSMatricesBatched(b *testing.B) {
	s, w := benchFixture(b)
	e := NewEngine(s)
	e.par = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMatrices = e.BaseMatrices(bulkPairs, w)
	}
}

// BenchmarkTRRSMatricesBatchedVector is the batched build with the vector
// kernel — the new fast path for bulk construction.
func BenchmarkTRRSMatricesBatchedVector(b *testing.B) {
	s, w := benchFixture(b)
	e := NewEngine(s)
	e.par = 1
	e.SetKernel(KernelVector)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMatrices = e.BaseMatrices(bulkPairs, w)
	}
}

// BenchmarkTRRSMatricesBatchedFloat32 is the batched build on float32
// planes.
func BenchmarkTRRSMatricesBatchedFloat32(b *testing.B) {
	s, w := benchFixture(b)
	e := NewEnginePrecision(s, PrecisionFloat32)
	e.par = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMatrices = e.BaseMatrices(bulkPairs, w)
	}
}

// BenchmarkTRRSIncrementalHopBatched is the steady-state hop refreshing
// all three pairs through the batched ExtendMatrices (serial, zero
// allocs — see TestExtendMatricesAllocFree).
func BenchmarkTRRSIncrementalHopBatched(b *testing.B) {
	s, w := benchFixture(b)
	const hop = 50
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		b.Fatal(err)
	}
	snaps := make([][][][]complex128, s.NumSlots())
	for ti := range snaps {
		snaps[ti] = seriesSnapshot(s, ti)
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(snaps[ti]); err != nil {
			b.Fatal(err)
		}
	}
	k := 0
	hopOnce := func() {
		for n := 0; n < hop; n++ {
			if err := inc.Append(snaps[k%len(snaps)]); err != nil {
				b.Fatal(err)
			}
			k++
		}
		inc.DropFront(hop)
		ms, err := inc.ExtendMatrices(bulkPairs)
		if err != nil {
			b.Fatal(err)
		}
		sinkMatrices = ms
	}
	for n := 0; n < 12; n++ {
		hopOnce()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hopOnce()
	}
}
