package trrs

import (
	"fmt"

	"rim/internal/obs"
	"rim/internal/obs/trace"
)

// Incremental is the streaming counterpart of Engine: a ring of
// unit-normalized CSI snapshots over a sliding window, plus per-pair base
// matrices that are extended in place as slots arrive instead of being
// recomputed from scratch every analysis hop.
//
// The window is a contiguous absolute slot range [start, end): Append
// grows the tail by one slot, DropFront advances the head. ExtendMatrix
// returns a pair's base matrix over the current window, recomputing only
// the rows whose value can have changed since the last call:
//
//   - the new rows themselves, plus the trailing W rows, whose forward
//     references (t − l with l < 0) now land on freshly appended slots
//     that were out of range — and therefore zero — before;
//   - after a DropFront, the leading W rows, whose backward references
//     now fall off the head of the window.
//
// All other rows are carried over untouched, so a steady-state hop of h
// slots costs O((2W+h)·(2W+1)) TRRS values per pair instead of the full
// window's O(T·(2W+1)). Because every row is produced by the same
// fillRow arithmetic the batch engine uses, the result is bit-for-bit
// identical to Engine.BaseMatrixSerial over a series holding exactly the
// window's snapshots.
//
// Storage is structure-of-arrays and steady-state allocation-free: the
// normalized snapshots live in per-(antenna, tx) re/im planes whose live
// region is slots [head, head+n); Append normalizes into the tail in
// place and, when the tail reaches capacity, compacts the live region to
// the front instead of growing. Each maintained pair matrix ping-pongs
// between two preallocated backings: a refresh copies carried rows from
// the previous generation's buffer and recomputes the stale ones, so once
// the window geometry stabilizes no hop allocates (pinned at 0 mallocs per
// hop by the allocation tests and the bench guard).
//
// Refreshes run on the calling goroutine: a streaming session is the unit
// of concurrency (the daemon runs sessions side by side), so one hop is
// never fanned out over a worker pool.
//
// Consequently a matrix returned by ExtendMatrix stays valid only until
// the pair's next refresh-producing call (the generation after next
// overwrites its storage); callers must not modify or retain rows across
// hops. Incremental is not goroutine-safe; callers serialize access
// (core.Streamer holds it under its own lock).
type Incremental struct {
	rate   float64
	numTx  int
	numAnt int
	w      int
	kernel Kernel
	// tones is the uniform per-snapshot vector length, learned from the
	// first Append (-1 before).
	tones int
	// ring holds the SoA ring planes in the element type prec selects
	// (conversion happens once, in Append); the live window occupies
	// [head·tones, (head+n)·tones) where n = end − start, and every
	// slab's length is (head+n)·tones.
	prec       Precision
	ring       planeStore
	head       int
	start, end int
	mats       map[PairSpec]*incMat

	// view is the cached full-array engine ExtendMatrix refreshes in
	// place every call (EngineView allocates fresh ones for external
	// callers); viewAnts is its identity antenna list.
	view     *Engine
	viewAnts []int

	// Refresh scratch, reused across hops so refreshes stay
	// allocation-free in steady state: the matrices ExtendMatrices
	// returns, the pair-major stale work list with per-pair segment
	// offsets, and the row-major interleaved fill order.
	batchOut   []*Matrix
	batchWork  []batchItem
	batchSeg   []int
	batchOrder []batchItem

	// Observability handles (nil = unobserved): per-ExtendMatrix rows
	// carried over untouched vs invalidated-and-recomputed, plus the
	// rows-filled counter propagated into every EngineView.
	rowsReused, rowsStale *obs.Counter
	rowsFilled            *obs.Counter
	// trc/hop feed per-ExtendMatrix reuse/stale decisions into the causal
	// trace (propagated into every EngineView); nil = no tracing.
	trc *trace.Recorder
	hop int64
}

// incMat is one maintained pair matrix plus the absolute window
// [start, end) its rows were computed for. Generations ping-pong between
// the two flat backings so a refresh never allocates once both are sized:
// generation g builds in flats[g&1]/rows[g&1] while copying carried rows
// out of the other buffer, and hdr[g&1] is the reused Matrix header.
type incMat struct {
	m          *Matrix
	start, end int
	flats      [2][]float64
	rows       [2][][]float64
	hdr        [2]Matrix
	cur        int
}

// MaxRate is the highest sample rate, in Hz, the streaming engines accept.
// Real CSI packet rates are a few hundred Hz (the paper streams at
// 200 Hz); the cap keeps per-second buffers small and every seconds→slots
// conversion far inside int.
const MaxRate = 1e5

// ValidRate reports whether rate is a usable sample rate: positive, finite
// and at most MaxRate. NaN fails.
func ValidRate(rate float64) bool { return rate > 0 && rate <= MaxRate }

// NewIncremental builds an empty incremental engine for CSI with the given
// shape. w is the one-sided lag window of the maintained matrices, in
// slots; it must match the W the analysis will ask for.
func NewIncremental(rate float64, numAnts, numTx, w int) (*Incremental, error) {
	return NewIncrementalPrecision(rate, numAnts, numTx, w, PrecisionFloat64)
}

// NewIncrementalPrecision is NewIncremental with an explicit ring-plane
// precision. PrecisionFloat32 converts snapshots to float32 once in
// Append and runs every row fill through the float32 sweep kernels; see
// Precision for the error budget.
func NewIncrementalPrecision(rate float64, numAnts, numTx, w int, prec Precision) (*Incremental, error) {
	if !ValidRate(rate) {
		return nil, fmt.Errorf("trrs: incremental rate must be in (0, %g] Hz, got %v", MaxRate, rate)
	}
	if numAnts <= 0 || numTx <= 0 {
		return nil, fmt.Errorf("trrs: incremental shape (%d antennas, %d tx) must be positive", numAnts, numTx)
	}
	if w < 0 {
		return nil, fmt.Errorf("trrs: incremental lag window W=%d must be non-negative", w)
	}
	return &Incremental{
		rate:   rate,
		numAnt: numAnts,
		numTx:  numTx,
		w:      w,
		prec:   prec,
		ring:   newStore(prec, numAnts, numTx, 0),
		tones:  -1,
		mats:   map[PairSpec]*incMat{},
	}, nil
}

// Precision returns the ring-plane precision.
func (inc *Incremental) Precision() Precision { return inc.prec }

// SetKernel selects the inner-product kernel used by matrix refreshes and
// every EngineView (same semantics as Engine.SetKernel).
func (inc *Incremental) SetKernel(k Kernel) { inc.kernel = k }

// Kernel returns the selected inner-product kernel.
func (inc *Incremental) Kernel() Kernel { return inc.kernel }

// SetObs points the incremental engine's utilization counters at a
// registry: rows reused vs invalidated per ExtendMatrix
// (rim_trrs_rows_reused_total / rim_trrs_rows_stale_total) plus the
// rows-filled counter inherited by every EngineView. A nil registry
// detaches them.
func (inc *Incremental) SetObs(reg *obs.Registry) {
	if reg == nil {
		inc.rowsReused, inc.rowsStale, inc.rowsFilled = nil, nil, nil
		return
	}
	inc.rowsReused = reg.Counter("rim_trrs_rows_reused_total",
		"base-matrix rows carried over untouched by the incremental engine")
	inc.rowsStale = reg.Counter("rim_trrs_rows_stale_total",
		"base-matrix rows invalidated (head drop / tail extension) and recomputed")
	inc.rowsFilled = reg.Counter("rim_trrs_rows_filled_total",
		"TRRS base-matrix rows computed from scratch")
}

// SetTrace attaches an event recorder: every ExtendMatrix emits a
// trace.KindTRRSExtend event carrying its reuse/stale row split, and the
// recorder is inherited by every EngineView (whose builds emit
// trace.KindTRRSFill). A nil recorder (the default) disables tracing.
func (inc *Incremental) SetTrace(rec *trace.Recorder) { inc.trc = rec }

// SetHop stamps subsequently emitted trace events with the causal hop ID
// of the analysis hop driving this engine.
func (inc *Incremental) SetHop(hop int64) { inc.hop = hop }

// NumSlots returns the current window length.
func (inc *Incremental) NumSlots() int { return inc.end - inc.start }

// W returns the one-sided lag window of the maintained matrices.
func (inc *Incremental) W() int { return inc.w }

// Rate returns the sample rate in Hz.
func (inc *Incremental) Rate() float64 { return inc.rate }

// Append ingests one snapshot (shape [ant][tx][tone]); the rows are copied
// into the SoA ring and normalized with exactly Engine's constructor
// arithmetic, so later matrix queries match a batch engine built over the
// same window. The tone count is learned from the first snapshot; every
// later snapshot must match it (the SoA planes are uniform slabs).
func (inc *Incremental) Append(snapshot [][][]complex128) error {
	if len(snapshot) != inc.numAnt {
		return fmt.Errorf("trrs: incremental snapshot has %d antennas, want %d", len(snapshot), inc.numAnt)
	}
	for a := range snapshot {
		if len(snapshot[a]) != inc.numTx {
			return fmt.Errorf("trrs: incremental snapshot antenna %d has %d tx, want %d",
				a, len(snapshot[a]), inc.numTx)
		}
	}
	if inc.tones < 0 {
		inc.tones = len(snapshot[0][0])
	}
	for a := range snapshot {
		for tx := 0; tx < inc.numTx; tx++ {
			if len(snapshot[a][tx]) != inc.tones {
				return fmt.Errorf("trrs: incremental snapshot antenna %d tx %d has %d tones, want uniform %d",
					a, tx, len(snapshot[a][tx]), inc.tones)
			}
		}
	}
	n := inc.NumSlots()
	if inc.ring.addSlot(inc.head*inc.tones, (inc.head+n)*inc.tones, inc.tones) {
		inc.head = 0
	}
	o := (inc.head + n) * inc.tones
	for a := range snapshot {
		for tx, src := range snapshot[a] {
			inc.ring.put(a, tx, o, src)
		}
	}
	inc.end++
	return nil
}

// DropFront advances the window head by n slots (ring-buffer trim; the
// slots' storage is reclaimed by a later Append's compaction). The leading
// W rows of every maintained matrix become stale and are refreshed on the
// next ExtendMatrix call.
func (inc *Incremental) DropFront(n int) {
	if n <= 0 {
		return
	}
	if n > inc.NumSlots() {
		n = inc.NumSlots()
	}
	inc.head += n
	inc.start += n
}

// viewInto points e at the current window: plane slices covering slots
// [head, head+n), plus the incremental engine's rate/shape/tuning. Views
// are serial (Parallelism 1), like the incremental engine itself.
func (inc *Incremental) viewInto(e *Engine, ants []int) error {
	for _, a := range ants {
		if a < 0 || a >= inc.numAnt {
			return fmt.Errorf("trrs: EngineView antenna %d out of range [0,%d)", a, inc.numAnt)
		}
	}
	tones := inc.tones
	if tones < 0 {
		tones = 0
	}
	e.rate = inc.rate
	e.numAnts = len(ants)
	e.slots = inc.NumSlots()
	e.tones = tones
	e.prec = inc.prec
	e.kernel = inc.kernel
	e.par = 1
	e.rowsFilled = inc.rowsFilled
	e.trc = inc.trc
	e.hop = inc.hop
	inc.ring.viewInto(e.planes, ants, inc.head*tones, (inc.head+e.slots)*tones)
	return nil
}

// EngineView returns a batch Engine aliasing the window's normalized
// snapshots, restricted to the given antennas (nil means all, in order).
// The view shares storage with the incremental engine and is invalidated
// by the next Append/DropFront (an Append may compact the ring under it);
// it exists so window-scoped consumers (movement detection, self-TRRS)
// run on the incrementally maintained normalization instead of
// renormalizing the window every hop.
func (inc *Incremental) EngineView(ants []int) (*Engine, error) {
	if ants == nil {
		ants = make([]int, inc.numAnt)
		for a := range ants {
			ants[a] = a
		}
	}
	e := &Engine{planes: inc.ring.shell(len(ants))}
	if err := inc.viewInto(e, ants); err != nil {
		return nil, err
	}
	return e, nil
}

// fullView refreshes (lazily building) the cached all-antenna view used
// by ExtendMatrix, so the steady-state hop allocates nothing.
func (inc *Incremental) fullView() *Engine {
	if inc.view == nil {
		inc.view = &Engine{planes: inc.ring.shell(inc.numAnt)}
		inc.viewAnts = make([]int, inc.numAnt)
		for a := range inc.viewAnts {
			inc.viewAnts[a] = a
		}
	}
	// The identity view can't fail: every antenna index is in range.
	if err := inc.viewInto(inc.view, inc.viewAnts); err != nil {
		panic(err)
	}
	return inc.view
}

// ExtendMatrix returns the base TRRS matrix of antenna pair (i, j) over
// the current window, extending the maintained matrix with only the rows
// invalidated since the last call (see the type comment for the scheme).
// Antenna indices are absolute. Rows of the returned matrix are owned by
// the engine: callers must not modify them, and the matrix is overwritten
// two refreshes later (see the type comment on storage reuse).
func (inc *Incremental) ExtendMatrix(i, j int) (*Matrix, error) {
	if i < 0 || i >= inc.numAnt || j < 0 || j >= inc.numAnt {
		return nil, fmt.Errorf("trrs: ExtendMatrix pair (%d,%d) out of range [0,%d)", i, j, inc.numAnt)
	}
	im := inc.matFor(i, j)
	if im.m != nil && im.start == inc.start && im.end == inc.end {
		return im.m, nil
	}
	m, work := inc.carry(im, i, j, inc.batchWork[:0])
	inc.batchWork = work
	inc.fullView().fillRows(work, trace.PairCode(i, j), 0)
	return m, nil
}

// matFor returns (creating on first use) the maintained state of a pair.
func (inc *Incremental) matFor(i, j int) *incMat {
	key := PairSpec{I: i, J: j}
	im, ok := inc.mats[key]
	if !ok {
		im = &incMat{}
		inc.mats[key] = im
	}
	return im
}

// carry advances pair (i, j)'s maintained matrix to the current window:
// it sizes the next-generation backing, copies every row still valid from
// the previous generation, appends one work item per stale row to work,
// commits the generation swap and the reuse/stale accounting, and returns
// the new matrix with its stale rows NOT yet computed — the caller fills
// them with Engine.fillRows.
func (inc *Incremental) carry(im *incMat, i, j int, work []batchItem) (*Matrix, []batchItem) {
	tSlots := inc.NumSlots()
	width := 2*inc.w + 1
	nxt := 1 - im.cur
	flat := im.flats[nxt]
	if cap(flat) < tSlots*width {
		flat = make([]float64, tSlots*width)
	}
	flat = flat[:tSlots*width]
	rows := im.rows[nxt]
	if cap(rows) < tSlots {
		rows = make([][]float64, tSlots)
	}
	rows = rows[:tSlots]
	m := &im.hdr[nxt]

	nPrev := len(work)
	for t := 0; t < tSlots; t++ {
		row := flat[t*width : (t+1)*width]
		rows[t] = row
		r := inc.start + t // absolute slot of this row
		valid := im.m != nil && r < im.end
		// A head advance zeroes backward references of the leading W rows.
		if valid && inc.start > im.start && r < inc.start+inc.w {
			valid = false
		}
		// A tail extension unzeroes forward references of rows within W of
		// the old end.
		if valid && inc.end > im.end && r >= im.end-inc.w {
			valid = false
		}
		if valid {
			copy(row, im.m.Vals[r-im.start])
		} else {
			work = append(work, batchItem{m: m, t: t})
		}
	}
	nStale := len(work) - nPrev

	*m = Matrix{I: i, J: j, W: inc.w, Rate: inc.rate, Vals: rows}
	inc.rowsReused.Add(uint64(tSlots - nStale))
	inc.rowsStale.Add(uint64(nStale))
	if inc.trc != nil {
		inc.trc.Emit(trace.KindTRRSExtend, inc.hop, trace.PairCode(i, j),
			int64(tSlots-nStale), int64(nStale))
	}
	im.flats[nxt] = flat
	im.rows[nxt] = rows
	im.cur = nxt
	im.m, im.start, im.end = m, inc.start, inc.end
	return m, work
}

// ExtendMatrices is the cross-pair batched form of ExtendMatrix: it
// advances every listed pair's matrix to the current window and fills all
// their stale rows in one batched pass, interleaved row-major across
// pairs — consecutive fills sweep the same slot range of the CSI planes,
// so each freshly appended time block is read once and feeds every pair
// sharing it (in steady state every pair is stale on exactly the same
// rows, making the interleave a perfect block-major walk). The result
// slice and the matrices obey ExtendMatrix's ownership rules (valid until
// the next refresh; the slice itself is reused by the next call).
// Duplicate pairs are served by the per-pair fast path. Row values are
// bit-for-bit what per-pair ExtendMatrix calls would produce.
func (inc *Incremental) ExtendMatrices(pairs []PairSpec) ([]*Matrix, error) {
	out := inc.batchOut[:0]
	work := inc.batchWork[:0]
	seg := inc.batchSeg[:0]
	seg = append(seg, 0)
	touched := 0
	for _, p := range pairs {
		if p.I < 0 || p.I >= inc.numAnt || p.J < 0 || p.J >= inc.numAnt {
			inc.batchOut, inc.batchWork, inc.batchSeg = out, work, seg
			return nil, fmt.Errorf("trrs: ExtendMatrices pair (%d,%d) out of range [0,%d)", p.I, p.J, inc.numAnt)
		}
		im := inc.matFor(p.I, p.J)
		if im.m != nil && im.start == inc.start && im.end == inc.end {
			out = append(out, im.m)
			seg = append(seg, len(work))
			continue
		}
		var m *Matrix
		m, work = inc.carry(im, p.I, p.J, work)
		touched++
		out = append(out, m)
		seg = append(seg, len(work))
	}
	// Interleave the pair-major segments row-major: position pos of every
	// pair's stale list, pair by pair, then pos+1.
	order := inc.batchOrder[:0]
	for pos := 0; len(order) < len(work); pos++ {
		for k := 0; k+1 < len(seg); k++ {
			s := work[seg[k]:seg[k+1]]
			if pos < len(s) {
				order = append(order, s[pos])
			}
		}
	}
	if len(order) > 0 {
		inc.fullView().fillRows(order, -1, int64(touched))
	}
	inc.batchOut, inc.batchWork, inc.batchSeg, inc.batchOrder = out, work, seg, order
	return out, nil
}
