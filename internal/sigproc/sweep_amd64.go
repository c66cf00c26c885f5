package sigproc

// Runtime CPU feature detection for the AVX2+FMA sweep kernels. The
// repository is dependency-free, so the CPUID/XGETBV probes are the two
// tiny assembly stubs in sweep_amd64.s rather than x/sys/cpu.

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

// vecSupported is fixed at startup: AVX2 and FMA present, and the OS has
// enabled XMM+YMM state saving (XCR0 bits 1 and 2), so the 256-bit
// register file is actually usable.
var vecSupported = detectVec()

func detectVec() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c&fma == 0 || c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b&avx2 != 0
}

// The assembly entry points, one per element type (assembly cannot be
// generic). The Go wrappers in sweep.go have already bounds-checked the
// full strided range, so the kernels receive raw base pointers; noescape
// keeps the hot path allocation-free.

//go:noescape
func dotSqSweepAVX2(out, ar, ai, br, bi *float64, tones, count, stride int)

//go:noescape
func dotSqSweep32AVX2(out *float64, ar, ai, br, bi *float32, tones, count, stride int)

// dotSqSweep picks the assembly entry point for the element type, once
// per call.
func dotSqSweep[T Float](out []float64, ar, ai, br, bi []T, off, stride, tones int) {
	if !vecSupported {
		dotSqSweepGeneric(out, ar, ai, br, bi, off, stride, tones)
		return
	}
	switch a := any(&ar[0]).(type) {
	case *float64:
		dotSqSweepAVX2(&out[0], a, any(&ai[0]).(*float64),
			any(&br[off]).(*float64), any(&bi[off]).(*float64), tones, len(out), stride)
	case *float32:
		dotSqSweep32AVX2(&out[0], a, any(&ai[0]).(*float32),
			any(&br[off]).(*float32), any(&bi[off]).(*float32), tones, len(out), stride)
	}
}
