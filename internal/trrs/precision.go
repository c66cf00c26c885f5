package trrs

import (
	"fmt"

	"rim/internal/csi"
)

// Precision selects the storage precision of the engine's CSI planes.
//
// The default float64 planes preserve the seed arithmetic bit for bit.
// Float32 plane mode halves the memory traffic of every lag sweep and
// doubles the SIMD lane count of the vector kernels; the price is ~1e-7
// relative error per inner product. CSI is converted to float32 once at
// ingest (constructor or Append) and never per query; TRRS values,
// matrices and everything downstream stay float64. Matrix-level agreement
// with the float64 engine is pinned at 1e-5 relative by the precision
// property suite, and the end-to-end distance/heading drift on golden
// walks is bounded by the core error-budget test (see DESIGN.md, "TRRS
// kernel" for the measured budget).
type Precision uint8

const (
	// PrecisionFloat64 (the default) stores CSI as float64 planes:
	// bit-for-bit the seed arithmetic under KernelSequential.
	PrecisionFloat64 Precision = iota
	// PrecisionFloat32 stores CSI as float32 planes, converted at ingest.
	// Row fills always run through the float32 lag-sweep kernels (8 AVX2
	// lanes where supported); point queries use the scalar float32 kernel.
	PrecisionFloat32
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case PrecisionFloat64:
		return "float64"
	case PrecisionFloat32:
		return "float32"
	default:
		return fmt.Sprintf("precision(%d)", uint8(p))
	}
}

// ParsePrecision converts a precision name (as printed by
// Precision.String) back to the selector — the flag-parsing hook for
// rimtrack/rimserved/rimbench.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "float64", "f64", "":
		return PrecisionFloat64, nil
	case "float32", "f32":
		return PrecisionFloat32, nil
	default:
		return 0, fmt.Errorf("trrs: unknown precision %q (want float64 or float32)", s)
	}
}

// Precision returns the engine's plane precision.
func (e *Engine) Precision() Precision { return e.prec }

// NewEnginePrecision is NewEngine with an explicit plane precision.
// PrecisionFloat64 is exactly NewEngine; PrecisionFloat32 converts each
// snapshot to float32 at ingest and normalizes in the float32 planes
// (norm accumulated in float64, see sigproc.NormalizeSoA).
func NewEnginePrecision(s *csi.Series, prec Precision) *Engine {
	return newEngineFrom(s, prec, nil)
}
