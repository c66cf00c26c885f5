package trrs

import (
	"fmt"

	"rim/internal/obs"
	"rim/internal/obs/trace"
)

// Incremental is the streaming counterpart of Engine: the raw CSI
// snapshots of a sliding window, plus per-pair base matrices that are
// extended in place as slots arrive instead of being recomputed from
// scratch every analysis hop.
//
// The window is a contiguous absolute slot range [start, end): Append
// grows the tail by one slot, DropFront advances the head. ExtendMatrix
// returns a pair's base matrix over the current window, recomputing only
// the entries whose value can have changed since the last call. Entry
// (r, l) of a row for absolute slot r pairs snapshot r with snapshot r−l,
// or is 0 when r−l lies outside the window, so across a slide from
// [s0, e0) to [s1, e1):
//
//   - rows r ≥ e0 are new and filled in full;
//   - in the trailing W rows the forward columns whose r−l lands on a
//     freshly appended slot in [e0, e1) turn from 0 into a TRRS value and
//     are swept; the rest of the row is carried over;
//   - in the leading W rows the backward columns whose r−l fell off the
//     head, into [s0, s1), are cleared; the rest is carried over.
//
// Every other row is carried over untouched, so a steady-state hop of h
// slots costs O(h·(2W+1) + W²/2) TRRS values per pair (the new rows plus
// a triangle of forward columns) instead of the full window's
// O(T·(2W+1)). Each swept entry is an independent function of its two
// slots in every kernel (the vector sweep vectorizes over tones, not
// lags), so a partial sweep writes the bits a full one would: the result
// is bit-for-bit identical to Engine.BaseMatrixSerial over a series
// holding exactly the window's snapshots.
//
// ExtendMatrices maintains only one pair of each reversed twin
// {(i,j), (j,i)} in its list (the first listed, by the rule BaseMatrices
// follows, see pairSource): the other is reflected in full from the
// refreshed source by the exact κ̄ reflection base_ji[t][l] =
// base_ij[t−l][−l] (see reflect) into a hop-lifetime arena, so no twin
// keeps storage between refreshes. Both builds list each swept pair's
// work in time order and run it through the same executor, Engine.run.
//
// Engine views also serve movement detection from a self-TRRS cache: the
// raw self-TRRS κ̄(a@r, a@r−lag) of each (antenna, lag) a view was asked
// for is kept per absolute slot r, so a hop evaluates only the slots
// appended since the last one (see selfWindow). The moving average and
// warm-up backfill still run over the view's window, so
// Engine.SelfSeries returns the bits a batch engine over the same window
// would.
//
// Storage is structure-of-arrays and steady-state allocation-free. What
// the engine carries from one refresh to the next is the raw rows, the
// swept pair rows and the self-TRRS cache. The window's one full copy of
// the CSI is a RawRing: Append copies each snapshot's rows into it (its
// own, or the one a core.Streamer shares with it, see UseRaw), so no
// caller row is kept, and normalizes nothing. The normalized snapshots,
// per-(antenna, tx) re/im planes, are a pure function of the raw rows: a
// refresh normalizes the slots it reads into a plane store (see
// planesFrom), with the arithmetic a batch Engine runs on the same rows,
// so the same bits. In steady state that is the refresh reach plus the
// slots appended since the last refresh. The store is lent for the hop
// (see Lend) or, with no lender, the engine's own. Each maintained
// pair matrix keeps its rows in one ring of C rows, C the declared peak
// window (see SetPeakWindow) or the largest window it has seen if that is
// more, with the row of absolute slot r at ring row r mod C: a refresh
// re-points the row headers, leaves carried rows where they are and
// recomputes the stale entries in place, and the self-TRRS cache compacts
// each series in place, so once the window geometry stabilizes no hop
// allocates or copies a row (pinned at 0 mallocs per hop by the
// allocation tests and the bench guard).
//
// Refreshes run on the calling goroutine (the executor runs on an engine
// view, which has one worker): a streaming session is the unit of
// concurrency (the daemon runs sessions side by side), so one hop is never
// fanned out over a worker pool.
//
// Consequently a matrix returned by ExtendMatrix stays valid only until
// the pair's next refresh-producing call (which re-points its rows and
// overwrites the rows that left the window); callers must not modify or
// retain rows across hops. Incremental is not goroutine-safe; callers
// serialize access (core.Streamer holds it under its own lock).
type Incremental struct {
	rate   float64
	numTx  int
	numAnt int
	w      int
	kernel Kernel
	// tones is the uniform per-snapshot vector length, learned from the
	// first Append (-1 before).
	tones int
	// prec is the element type of the planes: a snapshot is converted to
	// it once per build, when it is normalized.
	prec Precision
	// The window is the absolute slot range [start, end).
	start, end int
	// raw is the window's raw rows, copied in by Append: slot s of the
	// window at the ring's absolute slot s (nil before the first Append
	// unless UseRaw supplied it).
	raw  *RawRing
	mats map[PairSpec]*incMat
	// maxLag is the largest self-TRRS lag asked.
	maxLag int
	// peak and stride are what SetPeakWindow declared, in slots (0 until
	// declared: size by the windows seen).
	peak, stride int

	// pl holds the normalized planes of slots [plLo, plHi), slot s at
	// offset (s−plLo)·tones, or is nil until a refresh builds them (see
	// planesFrom). They live in the lent scratch's store, the engine's
	// own, or a one-off store. plGen counts the builds and the drops, so a
	// view can tell that its planes went stale, and mark is the window end
	// at the last build. Reversed twins are reflected into the lent
	// scratch's arena, or the engine's own.
	pl               planeStore
	plLo, plHi, mark int
	plGen            int
	lent             *Scratch
	own              Scratch
	// normalized counts the slots the builds normalized, renorms the
	// builds that reached below the steady reach.
	normalized, renorms int

	// view is the cached full-array engine ExtendMatrix refreshes in
	// place every call (EngineView allocates fresh ones for external
	// callers); viewAnts is its identity antenna list.
	view     *Engine
	viewAnts []int

	// Refresh scratch, reused across hops so refreshes stay
	// allocation-free in steady state: the matrices ExtendMatrices
	// returns and its stale work list.
	batchOut  []*Matrix
	batchWork []batchItem
	// onePair is ExtendMatrix's reused one-pair list.
	onePair [1]PairSpec

	// selfs is the self-TRRS cache, one series per (antenna, lag) an
	// EngineView's SelfSeries asked for (see selfWindow).
	selfs []selfSeries

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
// [start, end) its rows were computed for. Its rows live in one flat ring
// of C = len(ring)/(2W+1) rows, C the declared peak window or the largest
// window the pair has seen if that is more:
// the row of absolute slot r is ring row r mod C, so a row keeps its
// storage for as long as it stays in the window and a refresh only
// re-points the row headers (rows, behind the reused Matrix header hdr)
// instead of copying rows. built is false until the first refresh.
type incMat struct {
	hdr        Matrix
	built      bool
	start, end int
	ring       []float64
	rows       [][]float64
}

// selfSeries caches the raw self-TRRS κ̄(ant@r, ant@r−lag) of absolute
// slots r ∈ [first, first+len(vals)). A value depends only on its two
// snapshots, so it stays valid for as long as both are in the window.
type selfSeries struct {
	ant, lag int
	first    int
	vals     []float64
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

// NewIncrementalPrecision is NewIncremental with an explicit plane
// precision. PrecisionFloat32 converts snapshots to float32 as it
// normalizes them and runs every row fill through the float32 sweep
// kernels; see Precision for the error budget.
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
		tones:  -1,
		mats:   map[PairSpec]*incMat{},
	}, nil
}

// Precision returns the plane precision.
func (inc *Incremental) Precision() Precision { return inc.prec }

// SetKernel selects the inner-product kernel used by matrix refreshes and
// every EngineView (same semantics as Engine.SetKernel).
func (inc *Incremental) SetKernel(k Kernel) { inc.kernel = k }

// Kernel returns the selected inner-product kernel.
func (inc *Incremental) Kernel() Kernel { return inc.kernel }

// SetObs points the incremental engine's utilization counters at a
// registry: rows carried over untouched vs rows with at least one entry
// cleared or recomputed per ExtendMatrix (rim_trrs_rows_reused_total /
// rim_trrs_rows_stale_total) plus the rows-filled counter, which counts
// full-row fills only and is inherited by every EngineView. A nil
// registry detaches them.
func (inc *Incremental) SetObs(reg *obs.Registry) {
	if reg == nil {
		inc.rowsReused, inc.rowsStale, inc.rowsFilled = nil, nil, nil
		return
	}
	inc.rowsReused = reg.Counter("rim_trrs_rows_reused_total",
		"base-matrix rows carried over untouched by the incremental engine")
	inc.rowsStale = reg.Counter("rim_trrs_rows_stale_total",
		"base-matrix rows invalidated (head drop / tail extension) and wholly or partly recomputed")
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

// SetPeakWindow declares the largest window, in slots, the caller holds
// before it drops slots from the front (peak) and the most slots it
// appends between two refreshes (stride). Each pair matrix's ring is then
// allocated at peak rows on its first build instead of regrowing hop by
// hop, and a refresh's planes fit the steady reach plus stride slots (see
// planesFrom). A raised declaration regrows each ring once, when the
// window next needs it; a lowered one shrinks nothing. A window that
// outgrows the peak still fits: it is a sizing hint, not a bound. Without
// a declaration everything is sized by the windows seen.
func (inc *Incremental) SetPeakWindow(peak, stride int) {
	inc.peak, inc.stride = peak, stride
	if inc.raw != nil {
		inc.raw.SetPeak(peak)
	}
}

// UseRaw makes r, which must be empty and shaped for this engine's
// antennas and tx, the ring Append copies the window's rows into, so that
// its owner reads the window from the same store. From then on the
// engine's Append and DropFront are the only calls that move r's window;
// r's flags and hold stay the owner's. Call it before the first Append.
func (inc *Incremental) UseRaw(r *RawRing) {
	r.SetPeak(inc.peak)
	inc.raw = r
	inc.start, inc.end = r.Start(), r.End()
	inc.mark = inc.start
}

// Scratch is the hop-lifetime storage a caller lends an Incremental (see
// Lend): the plane store its refreshes normalize the CSI they read into,
// and the arena ExtendMatrices reflects reversed twins into, which the
// caller may go on to fill with the matrices it derives (see
// VirtualMassiveInto). The zero value is ready to use. A Scratch serves
// one engine at a time.
type Scratch struct {
	Planes PlaneStore
	Arena  MatrixArena
}

// Lend lends the engine s until the next Lend, resetting s's arena:
// refreshes normalize into s.Planes and reflect reversed twins into
// s.Arena, where they stay until the lender resets it. nil takes the
// scratch back, and the engine then uses a scratch of its own, whose
// arena each ExtendMatrices resets. Either way the planes built so far
// are dropped, views re-point at their next read, and the engine forgets
// the matrices it last returned, so once a lender takes its scratch back
// nothing of the engine's references it.
func (inc *Incremental) Lend(s *Scratch) {
	if s != nil {
		s.Arena.Reset()
	}
	inc.lent = s
	inc.pl = nil
	inc.plGen++
	clear(inc.batchOut)
	if inc.view != nil {
		inc.view.planes.release()
	}
}

// planesFrom makes the planes hold the window's slots from lo (clamped to
// the window) to its end. Planes that already do are kept. Otherwise it
// normalizes them from the raw rows with Engine's constructor arithmetic,
// so they hold the bits a batch engine over the window would, and reaches
// down to the steady reach as well: reach = max(W, the largest self-TRRS
// lag asked) slots below the end of the last build. That is all a
// steady-state refresh reads, since a built pair's next rows sweep back W
// from its old end and a self-TRRS series pairs its next slot with the one
// its lag back, so the refreshes of one hop share one build of reach plus
// the appended slots. A build within the steady reach plus the declared
// stride goes into the lent store. One reaching further (a pair first
// built late, a replay after a restore, an external view's read) goes
// into a one-off store that is dropped with the planes, so the lent store,
// shared through its lender with other engines, stays at the steady size.
// With nothing lent the engine's own store serves every build.
func (inc *Incremental) planesFrom(lo int) {
	lo = max(lo, inc.start)
	if inc.pl != nil && inc.plLo <= lo && inc.plHi == inc.end {
		return
	}
	reach := max(inc.w, inc.maxLag)
	lo = max(min(lo, inc.mark-reach), inc.start)
	tones := max(inc.tones, 0)
	n, steady := inc.end-lo, reach+max(inc.stride, 1)
	switch {
	case inc.lent == nil:
		inc.pl = inc.own.Planes.fit(inc.prec, inc.numAnt, inc.numTx, n*tones, steady*tones)
	case n <= steady:
		inc.pl = inc.lent.Planes.fit(inc.prec, inc.numAnt, inc.numTx, n*tones, steady*tones)
	default:
		inc.pl = newStore(inc.prec, inc.numAnt, inc.numTx, n*tones)
	}
	if inc.stride > 0 && n > steady {
		inc.renorms++
	}
	for s := lo; s < inc.end; s++ {
		for a := 0; a < inc.numAnt; a++ {
			for tx := 0; tx < inc.numTx; tx++ {
				inc.pl.put(a, tx, (s-lo)*tones, inc.raw.Row(s, a, tx))
			}
		}
	}
	inc.normalized += n
	inc.plLo, inc.plHi, inc.mark = lo, inc.end, inc.end
	inc.plGen++
}

// Normalized returns how many slots the refreshes have normalized from
// the raw rows in all.
func (inc *Incremental) Normalized() int { return inc.normalized }

// Renormalized returns how many builds of the planes reached below the
// steady reach plus the declared stride (see planesFrom).
func (inc *Incremental) Renormalized() int { return inc.renorms }

// HeldBytes reports the storage the engine keeps: the bytes of the
// normalized planes it references (its own store, plus the current
// planes while they are lent or one-off) and of its matrices: one
// pair-matrix ring per pair it maintains, plus its own arena of
// reflected twins.
func (inc *Incremental) HeldBytes() (planes, matrices int) {
	planes = inc.own.Planes.Bytes()
	if inc.pl != nil && inc.pl != inc.own.Planes.st {
		planes += storeBytes(inc.pl, inc.prec)
	}
	matrices = inc.own.Arena.Bytes()
	for _, im := range inc.mats {
		matrices += cap(im.ring) * 8
	}
	return planes, matrices
}

// NumSlots returns the current window length.
func (inc *Incremental) NumSlots() int { return inc.end - inc.start }

// W returns the one-sided lag window of the maintained matrices.
func (inc *Incremental) W() int { return inc.w }

// Rate returns the sample rate in Hz.
func (inc *Incremental) Rate() float64 { return inc.rate }

// Append ingests one snapshot (shape [ant][tx][tone]): its rows are
// copied into the raw ring, where they stay until their slot is dropped,
// and are normalized by the refreshes that read them (see planesFrom).
// The engine keeps no reference to the snapshot. The tone count is
// learned from the first snapshot (or is the shared ring's, see UseRaw);
// every later snapshot must match it (the SoA planes are uniform slabs).
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
		if inc.raw != nil {
			inc.tones = inc.raw.tones
		} else {
			inc.tones = len(snapshot[0][0])
		}
	}
	for a := range snapshot {
		for tx := 0; tx < inc.numTx; tx++ {
			if len(snapshot[a][tx]) != inc.tones {
				return fmt.Errorf("trrs: incremental snapshot antenna %d tx %d has %d tones, want uniform %d",
					a, tx, len(snapshot[a][tx]), inc.tones)
			}
		}
	}
	if inc.raw == nil {
		inc.raw = NewRawRing(inc.numAnt, inc.numTx, inc.tones)
		inc.raw.SetPeak(inc.peak)
	}
	inc.raw.Append(snapshot)
	inc.end++
	return nil
}

// DropFront advances the window head by n slots (a ring-buffer trim of
// the raw rows: later Appends reuse the storage). The leading W rows of
// every maintained matrix lose their backward columns into the dropped
// slots, which the next ExtendMatrix call clears.
func (inc *Incremental) DropFront(n int) {
	if n <= 0 {
		return
	}
	if n = min(n, inc.NumSlots()); n == 0 {
		return
	}
	inc.start += n
	inc.raw.DropFront(n)
}

// coverView points a view of the current window at planes holding its
// slot t and every later one (see Engine.cover).
func (inc *Incremental) coverView(e *Engine, t int) {
	if e.srcStart != inc.start || e.slots != inc.NumSlots() {
		panic("trrs: read through a stale EngineView")
	}
	inc.planesFrom(inc.start + t)
	inc.pl.viewInto(e.planes, e.srcAnts, 0, (inc.plHi-inc.plLo)*max(inc.tones, 0))
	e.lo, e.gen = inc.plLo-inc.start, inc.plGen
}

// viewInto makes e a view of the current window: the incremental
// engine's rate/shape/tuning, with planes it points at on its first read
// (see coverView). Views are serial (one worker), like the incremental
// engine itself.
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
	e.src, e.srcAnts, e.srcStart = inc, ants, inc.start
	e.gen = -1
	return nil
}

// EngineView returns a batch Engine aliasing the window's normalized
// snapshots, restricted to the given antennas (nil means all, in order).
// The view reads the incremental engine's planes (its reads normalize the
// slots they need, see planesFrom) and is invalidated by the next
// Append/DropFront; it exists so window-scoped consumers (movement
// detection, self-TRRS) share the refresh's normalization instead of
// normalizing the window every hop, and its SelfSeries reads the engine's
// self-TRRS cache.
func (inc *Incremental) EngineView(ants []int) (*Engine, error) {
	if ants == nil {
		ants = make([]int, inc.numAnt)
		for a := range ants {
			ants[a] = a
		}
	} else {
		ants = append([]int(nil), ants...)
	}
	e := &Engine{planes: newStore(inc.prec, len(ants), inc.numTx, 0)}
	if err := inc.viewInto(e, ants); err != nil {
		return nil, err
	}
	return e, nil
}

// fullView refreshes (lazily building) the cached all-antenna view used
// by ExtendMatrix, so the steady-state hop allocates nothing.
func (inc *Incremental) fullView() *Engine {
	if inc.view == nil {
		inc.view = &Engine{planes: newStore(inc.prec, inc.numAnt, inc.numTx, 0)}
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
// the current window: ExtendMatrices of the one pair. Antenna indices are
// absolute. Rows of the returned matrix are owned by the engine: callers
// must not modify them, and the matrix is overwritten by the pair's next
// refresh (see the type comment on storage reuse). Like any
// ExtendMatrices call, it ends the twins an earlier call reflected into
// the engine's own arena.
func (inc *Incremental) ExtendMatrix(i, j int) (*Matrix, error) {
	inc.onePair[0] = PairSpec{I: i, J: j}
	ms, err := inc.ExtendMatrices(inc.onePair[:])
	if err != nil {
		return nil, err
	}
	return ms[0], nil
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
// it re-points the row headers into the pair's ring (sizing it first if
// the window outgrew it: to the declared peak, or to the window if that
// is larger), clears the backward columns that fell off the
// head, appends one work item per new row (all columns) and per carried
// row with forward columns onto newly appended slots (those columns only)
// to work, commits the reuse/stale accounting, and returns work. The
// matrix, im.hdr, holds its new rows only once the items are swept.
func (inc *Incremental) carry(im *incMat, i, j int, work []batchItem) []batchItem {
	tSlots := inc.NumSlots()
	w := inc.w
	width := 2*w + 1
	// Rows of absolute slots [start, kept) are carried; the rest are new.
	kept := inc.start
	if im.built {
		kept = max(im.end, inc.start)
	}
	if tSlots*width > len(im.ring) {
		im.grow(max(tSlots, inc.peak), width, inc.start, kept)
	}
	rows := im.rows[:tSlots]
	m := &im.hdr
	c, p := len(im.ring)/width, 0 // ring rows; ring row of slot start
	if c > 0 {
		p = inc.start % c
	}

	nStale := 0
	for t := 0; t < tSlots; t++ {
		r := inc.start + t // absolute slot of this row
		row := im.ring[p*width : (p+1)*width]
		rows[t] = row
		if p++; p == c {
			p = 0
		}
		if r >= kept {
			work = append(work, batchItem{m: m, t0: t, t1: t + 1, c1: width})
			nStale++
			continue
		}
		// Column c references slot r−(c−w). Backward references into
		// [im.start, start) were values and are now out of the window.
		z0 := r - inc.start + w + 1
		z1 := min(r-im.start+w+1, width)
		// Forward references into [im.end, end) were out of range (0) and
		// now land on appended slots.
		f0 := max(r-inc.end+w+1, 0)
		f1 := min(r-im.end+w+1, width)
		if z0 < z1 {
			clear(row[z0:z1])
		}
		if f0 < f1 {
			work = append(work, batchItem{m: m, t0: t, t1: t + 1, c0: f0, c1: f1})
		}
		if z0 < z1 || f0 < f1 {
			nStale++
		}
	}

	*m = Matrix{I: i, J: j, W: w, Rate: inc.rate, Vals: rows}
	inc.rowsReused.Add(uint64(tSlots - nStale))
	inc.rowsStale.Add(uint64(nStale))
	if inc.trc != nil {
		inc.trc.Emit(trace.KindTRRSExtend, inc.hop, trace.PairCode(i, j),
			int64(tSlots-nStale), int64(nStale))
	}
	im.built, im.start, im.end = true, inc.start, inc.end
	return work
}

// grow resizes the pair's ring to exactly c rows (the window outgrows it
// only on the first build, while warming up without a declared peak, or
// after a geometry change), and lays the carried rows of absolute slots
// [lo, hi) out at their new ring rows.
func (im *incMat) grow(c, width, lo, hi int) {
	ring := make([]float64, c*width)
	old := len(im.ring) / width
	for r := lo; r < hi; r++ {
		copy(ring[(r%c)*width:(r%c+1)*width], im.ring[(r%old)*width:(r%old+1)*width])
	}
	im.ring = ring
	im.rows = make([][]float64, c)
}

// ExtendMatrices advances every listed pair's matrix to the current window
// in one build: each stale pair's entries are swept row by row in time
// order, pair after pair (see Engine.run). As in BaseMatrices (see
// pairSource), a pair whose reverse is listed earlier is not maintained:
// it is reflected in full from the earlier pair's refreshed matrix
// (bit-for-bit exact; see reflect) into the lent scratch's arena, or the
// engine's own, which this call resets (see Lend). A duplicate pair
// shares its first occurrence's matrix, and a pair whose matrix is
// already current is returned as is. Every pair is validated before any
// state changes, so an error leaves every matrix as it was. The result
// slice and the matrices obey ExtendMatrix's ownership rules (valid until
// the next refresh; the slice itself is reused by the next call). Values
// are bit-for-bit what per-pair ExtendMatrix calls would produce.
func (inc *Incremental) ExtendMatrices(pairs []PairSpec) ([]*Matrix, error) {
	for _, p := range pairs {
		if p.I < 0 || p.I >= inc.numAnt || p.J < 0 || p.J >= inc.numAnt {
			return nil, fmt.Errorf("trrs: ExtendMatrices pair (%d,%d) out of range [0,%d)", p.I, p.J, inc.numAnt)
		}
	}
	arena := &inc.own.Arena
	if inc.lent != nil {
		arena = &inc.lent.Arena
	} else {
		arena.Reset()
	}
	out := inc.batchOut[:0]
	work := inc.batchWork[:0]
	touched := 0
	for k, p := range pairs {
		if src, alias := pairSource(pairs, k); alias || src >= 0 {
			out = append(out, nil) // filled in once the sources are swept
			continue
		}
		im := inc.matFor(p.I, p.J)
		if !im.built || im.start != inc.start || im.end != inc.end {
			touched++
			work = inc.carry(im, p.I, p.J, work)
		}
		out = append(out, &im.hdr)
	}
	if touched > 0 {
		inc.fullView().run(work, touched)
	}
	for k := range pairs {
		if src, alias := pairSource(pairs, k); alias {
			out[k] = out[src]
		} else if src >= 0 {
			out[k] = reflectInto(arena, out[src])
		}
	}
	inc.batchOut, inc.batchWork = out, work
	return out, nil
}

// selfWindow returns the raw self-TRRS κ̄(ant@r, ant@r−lag) of every
// absolute slot r ∈ [start+lag, end) of the current window (lag ≥ 0,
// ant absolute), refreshing the antenna's cached series first: values for
// slots that left the window are dropped and only slots appended since
// the last call are evaluated, with Engine.Base on the full-array view.
// The slice is owned by the engine and overwritten by the next call for
// the same (ant, lag).
func (inc *Incremental) selfWindow(ant, lag int) []float64 {
	var ss *selfSeries
	for k := range inc.selfs {
		if inc.selfs[k].ant == ant && inc.selfs[k].lag == lag {
			ss = &inc.selfs[k]
			break
		}
	}
	if ss == nil {
		inc.selfs = append(inc.selfs, selfSeries{ant: ant, lag: lag})
		ss = &inc.selfs[len(inc.selfs)-1]
		inc.maxLag = max(inc.maxLag, lag)
	}
	lo := inc.start + lag
	if d := lo - ss.first; d > 0 {
		if d >= len(ss.vals) {
			ss.vals = ss.vals[:0]
		} else {
			ss.vals = ss.vals[:copy(ss.vals, ss.vals[d:])]
		}
		ss.first = lo
	}
	e := inc.fullView()
	for r := ss.first + len(ss.vals); r < inc.end; r++ {
		t := r - inc.start
		ss.vals = append(ss.vals, e.Base(ant, ant, t, t-lag))
	}
	return ss.vals
}
