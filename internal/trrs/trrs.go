// Package trrs implements the Time-Reversal Resonating Strength machinery
// of the paper (§3.2): the TRRS similarity between channel snapshots
// (Eq. 1/2), its average over transmit antennas for effective-bandwidth
// expansion (Eq. 3), the virtual-massive-antenna boost that averages a
// window of consecutive snapshots (Eq. 4), and the sliding-window TRRS
// (alignment) matrices between antenna pairs (Eq. 5).
//
// Performance note: Eq. 4's virtual-massive TRRS over a window of V virtual
// antennas is a box filter in time applied to the pairwise "base" TRRS
// matrix base[t][l] = κ̄(H_i(t), H_j(t−l)). The engine therefore computes
// each pair's base matrix once — O(T·(2W+1)·N·S) — and derives any V by an
// O(T·(2W+1)) box filter, instead of the naive O(T·(2W+1)·V·N·S).
//
// The normalized snapshots are stored structure-of-arrays: one contiguous
// re plane and one im plane per (antenna, tx), with slot t occupying
// [t·tones, (t+1)·tones). A base-matrix row's lag sweep walks consecutive
// slots of one plane, so the kernel streams memory sequentially instead of
// chasing per-slot []complex128 pointers. The sequential kernel (an
// Engine's zero value, the bit-exact oracle) keeps the seed's summation
// order exactly (see sigproc.DotSqSoA), so every result is bit-for-bit
// identical to the original []complex128 arithmetic. The pipeline and the
// daemon default to the vector kernel instead; see DESIGN.md, "TRRS
// kernel".
package trrs

import (
	"fmt"
	"math"
	"runtime"

	"rim/internal/csi"
	"rim/internal/obs"
	"rim/internal/obs/trace"
	"rim/internal/sigproc"
)

// Kernel selects the inner-product kernel used for TRRS evaluation.
type Kernel uint8

const (
	// KernelSequential (the zero value) accumulates in the seed's element
	// order: results are bit-for-bit identical to the reference
	// implementation and therefore to every committed golden suite. It is
	// the bit-exact oracle; the daemon and the pipeline default
	// (ParseKernel(""), core.DefaultConfig) select KernelVector.
	KernelSequential Kernel = iota
	// KernelVector evaluates whole base-matrix rows through the lag-sweep
	// kernels (sigproc.DotSqSweepSoA): AVX2+FMA assembly on supporting
	// amd64 hardware, scalar sweep elsewhere (sigproc.VecSupported
	// reports which). Point queries (Base, SelfSeries) fall back to the
	// sequential kernel — the sweep only pays off across a row. Results
	// agree with the sequential kernel to 1e-12 relative.
	KernelVector
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KernelSequential:
		return "sequential"
	case KernelVector:
		return "vector"
	default:
		return fmt.Sprintf("kernel(%d)", uint8(k))
	}
}

// ParseKernel converts a kernel name (as printed by Kernel.String) back to
// the selector — the flag-parsing hook for rimtrack/rimserved/rimbench.
// The empty name selects the default, KernelVector.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "sequential":
		return KernelSequential, nil
	case "vector", "":
		return KernelVector, nil
	default:
		return 0, fmt.Errorf("trrs: unknown kernel %q (want sequential or vector)", s)
	}
}

// Engine holds unit-normalized CSI vectors so that the TRRS of Eq. 2
// reduces to the squared magnitude of an inner product.
type Engine struct {
	rate    float64
	numAnts int
	slots   int
	// tones is the per-snapshot vector length; every slot must share it
	// (the SoA planes are uniform slabs).
	tones int
	// planes holds the unit-norm CSI, slot t at [(t−lo)*tones,
	// (t−lo+1)*tones) of each (antenna, tx) slab, in the element type
	// prec selects (converted once at ingest, never per query). lo is 0
	// except on a view of an Incremental, whose planes hold the slots its
	// refreshes read; gen is the build of the Incremental's planes the
	// view points at. A read below lo or after a rebuild re-points the
	// view first (see cover).
	planes  planeStore
	lo, gen int
	prec    Precision
	// kernel selects the inner-product kernel (see Kernel).
	kernel Kernel
	// par is the worker count of BaseMatrix/BaseMatrices: 0 (every
	// NewEngine) means GOMAXPROCS. Incremental views pin it to 1, and the
	// package's tests sweep it to show the result is bit-for-bit
	// independent of the worker count.
	par int
	// Observability handles (nil = unobserved, every use a no-op): rows of
	// base matrices computed from scratch, and the pool's effective worker
	// count on the most recent build.
	rowsFilled *obs.Counter
	poolGauge  *obs.Gauge
	// trc/hop feed per-build fill events into the causal trace (nil = no
	// tracing); hop is the causal hop ID stamped on emitted events.
	trc *trace.Recorder
	hop int64
	// src is the Incremental an EngineView aliases (nil otherwise): srcAnts
	// maps view antennas to its absolute ones and srcStart is the absolute
	// window start the view was taken at. SelfSeries reads its cache.
	src      *Incremental
	srcAnts  []int
	srcStart int
}

// SetKernel selects the inner-product kernel. The zero value
// KernelSequential is bit-for-bit identical to the reference arithmetic;
// KernelVector trades that for the lag-sweep row kernels (1e-12-relative
// agreement).
func (e *Engine) SetKernel(k Kernel) { e.kernel = k }

// Kernel returns the selected inner-product kernel.
func (e *Engine) Kernel() Kernel { return e.kernel }

// SetObs points the engine's utilization counters at a registry: the
// number of base-matrix rows computed from scratch
// (rim_trrs_rows_filled_total) and the worker-pool size of the most recent
// build (rim_trrs_pool_workers). A nil registry detaches them.
func (e *Engine) SetObs(reg *obs.Registry) {
	if reg == nil {
		e.rowsFilled, e.poolGauge = nil, nil
		return
	}
	e.rowsFilled = reg.Counter("rim_trrs_rows_filled_total",
		"TRRS base-matrix rows computed from scratch")
	e.poolGauge = reg.Gauge("rim_trrs_pool_workers",
		"worker count of the most recent TRRS pool build")
}

// SetTrace attaches an event recorder: base-matrix builds emit
// trace.KindTRRSFill events describing the rows computed from scratch. A
// nil recorder (the default) disables tracing at one nil check per build.
func (e *Engine) SetTrace(rec *trace.Recorder) { e.trc = rec }

// SetHop stamps subsequently emitted trace events with the causal hop ID
// of the analysis driving this engine (0 = batch).
func (e *Engine) SetHop(hop int64) { e.hop = hop }

// workers resolves the effective worker count.
func (e *Engine) workers() int {
	if e.par > 0 {
		return e.par
	}
	return runtime.GOMAXPROCS(0)
}

// NewEngine precomputes normalized snapshots from a processed CSI series.
// All snapshots must share one tone count (ragged series panic: the TRRS
// of differently-shaped snapshots was already a panic in the kernel).
func NewEngine(s *csi.Series) *Engine {
	return NewEnginePrecision(s, PrecisionFloat64)
}

// NewAmplitudeEngine builds an engine whose similarity discards phase: the
// stored vectors are per-subcarrier magnitudes (normalized). This is the
// ablation baseline for the TRRS choice — amplitude-only profiles lose the
// time-reversal focusing effect, so their spatial resolution is far worse.
func NewAmplitudeEngine(s *csi.Series) *Engine {
	var mag []complex128
	return newEngineFrom(s, PrecisionFloat64, func(src []complex128) []complex128 {
		mag = mag[:0]
		for _, c := range src {
			re, im := real(c), imag(c)
			mag = append(mag, complex(math.Sqrt(re*re+im*im), 0))
		}
		return mag
	})
}

// newEngineFrom allocates the planes for the series' shape and fills
// each slot with the normalized conv(snapshot) (nil conv = the snapshot
// itself). tones is taken from the first snapshot; every slot must match.
func newEngineFrom(s *csi.Series, prec Precision, conv func([]complex128) []complex128) *Engine {
	e := &Engine{rate: s.Rate, numAnts: s.NumAnts, slots: s.NumSlots(), prec: prec}
	if e.slots > 0 && e.numAnts > 0 && s.NumTx > 0 {
		e.tones = len(s.H[0][0][0])
	}
	e.planes = newStore(prec, s.NumAnts, s.NumTx, e.slots*e.tones)
	for a := 0; a < e.numAnts; a++ {
		for tx := 0; tx < s.NumTx; tx++ {
			for t := 0; t < e.slots; t++ {
				src := s.H[a][tx][t]
				if len(src) != e.tones {
					panic(fmt.Sprintf("trrs: snapshot (ant %d, tx %d, slot %d) has %d tones, want uniform %d",
						a, tx, t, len(src), e.tones))
				}
				if conv != nil {
					src = conv(src)
				}
				e.planes.put(a, tx, t*e.tones, src)
			}
		}
	}
	return e
}

// Rate returns the sample rate in Hz.
func (e *Engine) Rate() float64 { return e.rate }

// NumSlots returns the number of time slots.
func (e *Engine) NumSlots() int { return e.slots }

// NumAntennas returns the antenna count.
func (e *Engine) NumAntennas() int { return e.numAnts }

// Base returns the tx-averaged TRRS κ̄ (Eq. 3) between antenna i at slot ti
// and antenna j at slot tj. Out-of-range slots yield 0.
func (e *Engine) Base(i, j, ti, tj int) float64 {
	if ti < 0 || tj < 0 || ti >= e.slots || tj >= e.slots {
		return 0
	}
	e.cover(min(ti, tj))
	return e.planes.base(i, j, (ti-e.lo)*e.tones, (tj-e.lo)*e.tones, e.tones)
}

// cover makes the planes hold slot t. Only a view of an Incremental can
// miss it, or hold planes its source has since rebuilt or dropped; the
// view is then pointed at planes the source normalizes from the raw rows
// (see Incremental.planesFrom), which hold the same bits.
func (e *Engine) cover(t int) {
	if e.src != nil && (t < e.lo || e.gen != e.src.plGen) {
		e.src.coverView(e, t)
	}
}

// Matrix is a TRRS (alignment) matrix between one antenna pair: Vals[t][c]
// holds the TRRS of antenna I at slot t against antenna J at slot t−lag,
// where lag = c − W ranges over [−W, W].
type Matrix struct {
	I, J int
	W    int
	Rate float64
	Vals [][]float64
}

// NumSlots returns the time extent of the matrix.
func (m *Matrix) NumSlots() int { return len(m.Vals) }

// Lag converts a column index to a signed lag in slots.
func (m *Matrix) Lag(col int) int { return col - m.W }

// Col converts a signed lag in slots to a column index.
func (m *Matrix) Col(lag int) int { return lag + m.W }

// LagSeconds converts a signed lag in slots to seconds.
func (m *Matrix) LagSeconds(lag int) float64 { return float64(lag) / m.Rate }

// At returns the TRRS at slot t and signed lag (0 outside the window).
func (m *Matrix) At(t, lag int) float64 {
	if t < 0 || t >= len(m.Vals) || lag < -m.W || lag > m.W {
		return 0
	}
	return m.Vals[t][lag+m.W]
}

// fillCols computes columns c ∈ [cFrom, cTo) of row t of the (i, j, w)
// base matrix into row (len 2w+1), row[c] = κ̄(H_i(t), H_j(t−(c−w))) or 0
// outside the series, and leaves the other columns alone. The in-range
// column band is hoisted out of the loop — tj = t−(c−w) lies in
// [0, slots) iff c ∈ [cLo, cHi) — so the sweep calls the unchecked kernel
// and the out-of-range fringes are plain zero fills. Every entry is an
// independent function of its two slots, so any column range writes the
// bits the full row would. cFrom = w restricts the sweep to the
// non-negative lags, the self-pair half-band computation (see
// BaseMatrices); the incremental engine sweeps the forward columns that
// land on newly appended slots.
func (e *Engine) fillCols(row []float64, i, j, w, t, cFrom, cTo int) {
	cLo := min(max(t+w-e.slots+1, cFrom), cTo) // first c with t−(c−w) < slots
	cHi := max(min(t+w+1, cTo), cFrom)         // first c with t−(c−w) < 0
	clear(row[cFrom:cLo])
	clear(row[cHi:cTo])
	if cLo >= cHi {
		return
	}
	// The in-range band is a lag sweep: column c evaluates slot t against
	// slot t−(c−w), one slot earlier per column. Float32 plane mode and the
	// vector kernel hand the whole band to the sigproc sweep primitives
	// (AVX2+FMA assembly where available) instead of one kernel call per
	// entry; the sequential kernel stays the bit-exact per-entry loop.
	e.cover(min(t, t-(cHi-1-w)))
	band, oi, oj := row[cLo:cHi], (t-e.lo)*e.tones, (t-(cLo-w)-e.lo)*e.tones
	if e.prec == PrecisionFloat32 || e.kernel == KernelVector {
		e.planes.sweepRow(band, i, j, oi, oj, e.tones)
	} else {
		e.planes.baseRow(band, i, j, oi, oj, e.tones)
	}
}

// BaseMatrixSerial computes the single-snapshot TRRS matrix between
// antennas i and j over lags [−W, W] — base[t][l+W] = κ̄(H_i(t), H_j(t−l))
// — on one goroutine, row by row, with no work list and no symmetry
// shortcuts. This is the reference oracle the parallel, incremental and
// symmetry-deduplicated paths are tested against; no pipeline setting
// selects it (one worker still runs BaseMatrices' work list).
func (e *Engine) BaseMatrixSerial(i, j, w int) *Matrix {
	m := newMatrix(i, j, w, e.slots, e.rate)
	for t, row := range m.Vals {
		e.fillCols(row, i, j, w, t, 0, len(row))
	}
	return m
}

// BaseMatrix computes the single-snapshot TRRS matrix between antennas i
// and j over lags [−W, W], fanning the rows out over the engine's worker
// pool of GOMAXPROCS workers. The result is bit-for-bit identical to
// BaseMatrixSerial.
func (e *Engine) BaseMatrix(i, j, w int) *Matrix {
	return e.BaseMatrices([]PairSpec{{I: i, J: j}}, w)[0]
}

// VirtualMassive applies the Eq. 4 virtual-massive-antenna boost to a base
// matrix: each entry becomes the average of the same lag over a window of V
// consecutive snapshots (box filter along time, shrinking at the edges).
// V <= 1 returns a copy. A nil or ragged matrix (rows not 2W+1 wide) is a
// caller bug that would otherwise misindex the box filter; it is reported
// as an error.
func VirtualMassive(base *Matrix, v int) (*Matrix, error) {
	return VirtualMassiveInto(nil, base, v)
}

// PairMatrix is the convenience composition used everywhere: base matrix
// plus virtual-massive averaging with V virtual antennas.
func (e *Engine) PairMatrix(i, j, w, v int) *Matrix {
	m, err := VirtualMassive(e.BaseMatrix(i, j, w), v)
	if err != nil {
		// BaseMatrix always produces a well-formed matrix.
		panic(err)
	}
	return m
}

// SelfSeries returns the movement-detection series of §4.1 for antenna i:
// s[t] = virtual-massive TRRS between antenna i at slot t and itself
// lagSlots earlier, averaged over a window of v snapshots. Slots earlier
// than lagSlots copy the first computable value. On a view of an
// Incremental the raw values come from its self-TRRS cache (the same
// point kernel on the same snapshots, so the same bits).
func (e *Engine) SelfSeries(i, lagSlots, v int) []float64 {
	raw := make([]float64, e.slots)
	if cached := e.cachedSelf(i, lagSlots); cached != nil {
		copy(raw[lagSlots:], cached)
	} else {
		for t := max(lagSlots, 0); t < e.slots; t++ {
			raw[t] = e.Base(i, i, t, t-lagSlots)
		}
	}
	// Backfill the warm-up region.
	if lagSlots < e.slots {
		for t := 0; t < lagSlots; t++ {
			raw[t] = raw[lagSlots]
		}
	} else {
		for t := range raw {
			raw[t] = 1
		}
	}
	if v > 1 {
		return sigproc.MovingAverage(raw, v/2)
	}
	return raw
}

// cachedSelf returns the raw self-TRRS of view antenna i at lag lagSlots
// for window slots [lagSlots, slots) from the aliased Incremental's cache,
// or nil when e is not a view of the Incremental's current window or the
// lag leaves nothing to cache.
func (e *Engine) cachedSelf(i, lagSlots int) []float64 {
	if e.src == nil || lagSlots < 0 || lagSlots >= e.slots ||
		e.srcStart != e.src.start || e.slots != e.src.NumSlots() {
		return nil
	}
	return e.src.selfWindow(e.srcAnts[i], lagSlots)
}

// ColumnMax returns, for each slot, the best lag and TRRS value in the
// matrix row — the naive per-column argmax peak picker used as the ablation
// baseline for the dynamic-programming tracker.
func (m *Matrix) ColumnMax() (lags []int, vals []float64) {
	lags = make([]int, len(m.Vals))
	vals = make([]float64, len(m.Vals))
	for t, row := range m.Vals {
		best, bi := -1.0, 0
		for c, v := range row {
			if v > best {
				best, bi = v, c
			}
		}
		lags[t] = bi - m.W
		vals[t] = best
	}
	return lags, vals
}
