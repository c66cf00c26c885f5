package sigproc

// Lag-sweep TRRS kernels. A base-matrix row evaluates |<a, b_k>|² for one
// fixed snapshot a against a run of consecutive snapshots b_k — in the SoA
// planes those b_k are adjacent tones-sized blocks, so the whole sweep is
// one strided walk over contiguous memory. The sweep entry points below
// amortize the per-call cost (prologue, tail-mask setup) over the entire
// lag band instead of paying it once per matrix entry, which is where the
// AVX2 build gets most of its headroom over per-entry vector calls.
//
// On amd64 with AVX2+FMA (runtime-detected, see VecSupported) the sweeps
// dispatch to hand-written assembly: 4 float64 or 8 float32 lanes, four
// FMA accumulator registers per slot, masked tail loads from a static
// table so no tail element is ever touched out of bounds. Everywhere else
// they fall back to the scalar kernels. Both paths accumulate lanewise and
// reduce pairwise, so they agree with the sequential kernels only to
// rounding — the trrs vector kernel that consumes them is opt-in and gated
// at 1e-12 relative (float64) by the equivalence suite, never the
// bit-exact default.

// VecSupported reports whether the vectorized sweep kernels are backed by
// AVX2+FMA assembly on this machine. When false the sweeps still work
// (scalar fallback), but trrs.KernelVector buys nothing over the default;
// callers gating benchmarks or kernel selection on real SIMD should check
// this.
func VecSupported() bool { return vecSupported }

// checkSweep validates one sweep call: a must hold tones elements, and
// every b_k block [off+k*stride, off+k*stride+tones) for k in [0, count)
// must lie inside the b planes. The offsets are monotonic in k, so the two
// end blocks bound them all.
func checkSweep(name string, count, na, nai, nbr, nbi, off, stride, tones int) {
	if tones < 0 || na < tones || nai < tones {
		panic("sigproc: " + name + " a-plane shorter than tones")
	}
	if count == 0 {
		return
	}
	lo, hi := off, off+(count-1)*stride
	if hi < lo {
		lo, hi = hi, lo
	}
	if lo < 0 || hi+tones > nbr || hi+tones > nbi {
		panic("sigproc: " + name + " b-plane range out of bounds")
	}
}

// DotSqSweepSoA accumulates out[k] += |<a, b_k>|² for k in [0, len(out)),
// where a is (ar, ai)[0:tones] and b_k is (br, bi)[off+k*stride :
// off+k*stride+tones]. stride may be negative (the TRRS lag sweep walks
// earlier slots as the lag grows). Each inner product accumulates in the
// element type (4 float64 or 8 float32 lanes on AVX2) and adds its
// float64 |·|² into out. Out-of-bounds geometry panics.
func DotSqSweepSoA[T Float](out []float64, ar, ai, br, bi []T, off, stride, tones int) {
	checkSweep("DotSqSweepSoA", len(out), len(ar), len(ai), len(br), len(bi), off, stride, tones)
	if len(out) == 0 || tones == 0 {
		return
	}
	dotSqSweep(out, ar, ai, br, bi, off, stride, tones)
}

// dotSqSweepGeneric is the portable sweep: one scalar kernel call per
// slot. It is the non-amd64 implementation and the oracle the assembly is
// tested against (to rounding; the lane reduction differs). The explicit
// length checks (which checkSweep has already passed) let the compiler
// drop the bounds checks of the reslices.
func dotSqSweepGeneric[T Float](out []float64, ar, ai, br, bi []T, off, stride, tones int) {
	if tones < 0 || tones > len(ar) || tones > len(ai) {
		panic("sigproc: sweep a-plane shorter than tones")
	}
	ar, ai = ar[:tones], ai[:tones]
	for k := range out {
		o := off + k*stride
		hi := o + tones
		if o < 0 || hi < o || hi > len(br) || hi > len(bi) {
			panic("sigproc: sweep b-plane range out of bounds")
		}
		out[k] += DotSqSoA(ar, ai, br[o:hi], bi[o:hi])
	}
}
