package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"rim/internal/csi"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/trace"
	"rim/internal/sigproc"
	"rim/internal/trrs"
)

// StreamConfig parameterizes the real-time wrapper.
type StreamConfig struct {
	// Core is the pipeline configuration.
	Core Config
	// SpanSeconds is the sliding analysis window the pipeline reruns over
	// (default 4 s). It must comfortably exceed the lag window plus the
	// longest structure of interest (a movement segment boundary).
	SpanSeconds float64
	// HopSeconds is how often the window is re-analyzed (default 0.5 s):
	// the latency/CPU trade-off. Estimates are finalized once they are
	// older than the guard region, so output latency is roughly
	// Core.WindowSeconds + HopSeconds.
	HopSeconds float64
	// HopDeadline bounds one sliding-window analysis hop. A hop that
	// exhausts its budget stops at the next stage boundary and emits
	// degraded placeholder estimates for the slots it did not resolve —
	// the stream never stalls on one slow window, it reports "unknown"
	// and keeps going. Exceeded deadlines are counted in
	// rim_hop_deadline_exceeded_total. Zero (the default) disables the
	// bound. PushMaskedCtx additionally honors its context's deadline,
	// whichever is sooner.
	HopDeadline time.Duration
	// recompute disables the incremental TRRS engine and rebuilds the
	// whole analysis window from scratch on every hop: the seed's
	// behavior, kept as the reference oracle stream_equiv_test.go holds
	// the incremental engine to, bit for bit. Only this package's tests
	// set it.
	recompute bool
}

// Health is the stream's data-quality surface: instead of silently
// swallowing trouble, the Streamer accounts for every lost sample,
// rejected frame, dead RF chain and failed analysis here.
type Health struct {
	// Slots is the number of snapshots ingested.
	Slots int
	// LossRate is the fraction of (antenna, slot) samples that arrived
	// missing or were rejected at ingest.
	LossRate float64
	// CorruptSlots counts snapshots with at least one NaN/Inf/garbage row
	// rejected at ingest.
	CorruptSlots int
	// DeadAntennas lists the antenna indices currently considered dead
	// (persistently missing or energy-starved RF chains).
	DeadAntennas []int
	// Fallback reports whether analysis currently runs on a reduced
	// sub-array because of dead antennas.
	Fallback bool
	// ConsecutiveFailures counts analysis failures since the last
	// successful window; TotalFailures counts them over the stream's life.
	ConsecutiveFailures int
	TotalFailures       int
	// LastError is the most recent analysis error (nil after a success).
	// Health hands out a detached copy — message plus ErrAnalysis
	// classification — never the live error chain, so the snapshot stays
	// valid however the stream mutates afterwards.
	LastError error
}

// ErrAnalysis tags errors originating in the sliding-window analysis, as
// opposed to ingest (shape) errors. The stream stays usable after one: the
// failed window is emitted as degraded placeholder estimates and the error
// is recorded in Health, so callers that want the stream to keep going can
// errors.Is(err, ErrAnalysis) and continue.
var ErrAnalysis = errors.New("core: stream analysis failed")

// Streamer is the incremental (real-time) front end of the pipeline, the
// equivalent of the paper's §5 C++ online system: CSI snapshots are pushed
// one packet at a time and finalized per-slot estimates come back with
// bounded latency. Internally it reruns the batch pipeline over a sliding
// window — one rerun costs a few milliseconds (see
// BenchmarkComplexityFullPipeline), far below the packet budget.
//
// The Streamer is built to degrade gracefully on commodity-CSI faults:
// missing samples are masked (not fabricated as present), NaN/corrupt
// snapshots are rejected at ingest, a dead RF chain is detected mid-stream
// and analysis falls back to the surviving antennas, and every incident is
// surfaced through Health.
//
// Streamer is goroutine-safe: Push, PushMasked, Flush and Health may be
// called concurrently (ingest is still serialized by the internal lock, so
// concurrent pushes interleave whole snapshots).
type Streamer struct {
	mu      sync.Mutex
	cfg     StreamConfig
	rate    float64
	numAnts int
	numTx   int
	numSub  int

	span, hop, guard int
	// wSlots is the one-sided TRRS lag window in slots, fixed so the
	// incremental engine maintains matrices at exactly the W the
	// per-window analysis asks for.
	wSlots int
	// inc is the incremental TRRS engine (nil when cfg.recompute).
	inc *trrs.Incremental
	// slotRows is the reused per-push scratch naming the rows a push
	// commits (the window store copies them), and remapHdr the reused
	// per-pair Matrix headers of analyzeAlive's index remapping — neither
	// allocates on the steady-state path.
	slotRows [][][]complex128
	remapHdr map[[2]int]*trrs.Matrix
	// absPairs and baseMs are the reused scratch of analyzeAlive's
	// ExtendMatrices pass: the requested pairs by absolute antenna index,
	// and the result.
	absPairs []trrs.PairSpec
	baseMs   []*trrs.Matrix
	// aliveScratch backs aliveAntennas' per-hop result; absent and
	// liveScratch are the per-push antenna mask and live-power scratch of
	// ingest and dead detection; zeroRow is the all-zero row every
	// never-seen (antenna, tx) is held at. With them a push that completes
	// no hop allocates nothing.
	aliveScratch []int
	absent       []bool
	liveScratch  []float64
	zeroRow      []complex128
	// raw is the window store: every committed row, copied, in one flat
	// slot-major ring, with each slot's loss mask (the antennas whose
	// sample was lost, rejected or substituted) as its flags, which flow
	// into the analysis instead of being fabricated as all-present. With
	// the incremental engine it is the engine's ring too (see
	// trrs.Incremental.UseRaw), so the window is held once; window slot t
	// is the ring's slot raw.Start()+t.
	raw *trrs.RawRing
	// lastGood holds a copy of the last accepted row of every (ant, tx),
	// (ant·numTx + tx)·numSub on, substituted for missing samples;
	// goodSet[ant·numTx + tx] says whether it has one yet (the zero row
	// is held before).
	lastGood []complex128
	goodSet  []bool
	// pin is the restart point Pin captured.
	pin restartPin
	// dropped counts slots discarded from the front of the window.
	dropped int
	// finalized is the absolute slot index up to which estimates have
	// been emitted.
	finalized int
	// pending counts slots accumulated since the last analysis.
	pending int
	// hopFactor stretches the analysis hop to hopFactor×hop slots — the
	// load-shedding "coarser hop" degrade mode (see SetHopFactor).
	hopFactor int

	// Health accounting.
	samples      int
	missTotal    int
	corruptSlots int
	failures     int
	totalFails   int
	lastErr      error

	// Dead-antenna detection state: a ring buffer of the last deadWin
	// per-antenna missing flags plus an EMA of per-antenna CSI power.
	deadWin    int
	recentMiss [][]bool
	recentCnt  []int
	recentIdx  int
	recentN    int
	energyEMA  []float64
	emaAlpha   float64
	dead       []bool

	// log receives structured stream events (never nil; the no-op logger
	// when unconfigured). ob holds the resolved metric handles (all nil
	// when Core.Obs is nil).
	log *slog.Logger
	ob  streamObs

	// Causal tracing state: trc/flight mirror Core.Trace/Core.Flight,
	// hopSeq numbers the analysis hops (1-based; hop 0 is reserved for
	// batch runs), and ingestNs records each buffered slot's ingest
	// timestamp — trimmed in lockstep with the window — so the emit path can
	// measure ingest-to-emit lag. t0 anchors the timestamps when no
	// recorder supplies an epoch. lagOn gates the whole lag path.
	trc      *trace.Recorder
	flight   *trace.Flight
	qual     *quality.Engine
	hopSeq   int64
	ingestNs []int64
	t0       time.Time
	lagOn    bool

	// perObs holds per-entity metric children attached by the host (the
	// session layer resolves them from labeled families); all nil when
	// the stream is not attributed to an entity.
	perObs PerStreamObs
}

// PerStreamObs carries per-entity metric children a host resolves from
// labeled metric families and attaches to one streamer, so fleet daemons
// can attribute stream signals per session on top of the process-global
// streamObs counters. Zero value disables attribution.
type PerStreamObs struct {
	// Lag receives the same ingest-to-emit watermark samples as
	// rim_stream_lag_seconds, attributed to this stream.
	Lag *obs.Histogram
}

// SetPerStreamObs attaches per-entity metric children (see PerStreamObs).
// Safe to call mid-stream: enabling the lag path late backfills ingest
// timestamps for already-buffered slots (their lag reads near zero; the
// distribution is correct from the next slot on).
func (st *Streamer) SetPerStreamObs(po PerStreamObs) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.perObs = po
	wasOn := st.lagOn
	st.lagOn = st.trc != nil || st.ob.lagH != nil || po.Lag != nil
	if st.lagOn && !wasOn {
		now := st.nowNs()
		for len(st.ingestNs) < st.bufLen() {
			st.ingestNs = append(st.ingestNs, now)
		}
	}
}

// streamObs bundles the streamer's stages and metric handles, resolved
// once in NewStreamer so neither the per-packet path nor a hop touches the
// registry map. All handles are nil (no-op) when StreamConfig.Core.Obs
// (and, for the stages, Core.Trace) is nil.
type streamObs struct {
	ingest   *trace.Stage   // rim_ingest_seconds, trace kind ingest
	hop      *trace.Stage   // rim_hop_seconds, trace kind hop
	pipe     *pipelineObs   // every hop's pipeline stages and counters
	frames   *obs.Counter   // rim_stream_frames_total
	missing  *obs.Counter   // rim_stream_samples_missing_total
	corrupt  *obs.Counter   // rim_stream_slots_corrupt_total
	emitted  *obs.Counter   // rim_stream_estimates_total
	degraded *obs.Counter   // rim_stream_estimates_degraded_total
	failures *obs.Counter   // rim_stream_analysis_failures_total
	fallback *obs.Counter   // rim_stream_fallback_hops_total
	deadline *obs.Counter   // rim_hop_deadline_exceeded_total
	dead     *obs.Gauge     // rim_stream_dead_antennas
	lagH     *obs.Histogram // rim_stream_lag_seconds
	lagG     *obs.Gauge     // rim_stream_watermark_lag_seconds

	// Shared hop-scratch pool accounting (see scratch.go).
	scratchGets  *obs.Counter // rim_scratch_pool_gets_total
	scratchNews  *obs.Counter // rim_scratch_pool_news_total
	scratchBytes *obs.Gauge   // rim_scratch_pool_bytes
}

func newStreamObs(reg *obs.Registry, rec *trace.Recorder) streamObs {
	return streamObs{
		ingest:   trace.NewStage(reg, rec, trace.KindIngest),
		hop:      trace.NewStage(reg, rec, trace.KindHop),
		pipe:     newPipelineObs(reg, rec),
		frames:   reg.Counter("rim_stream_frames_total", "CSI snapshots ingested by the streamer"),
		missing:  reg.Counter("rim_stream_samples_missing_total", "(antenna, slot) samples missing or rejected at ingest"),
		corrupt:  reg.Counter("rim_stream_slots_corrupt_total", "snapshots with at least one NaN/garbage row rejected"),
		emitted:  reg.Counter("rim_stream_estimates_total", "finalized per-slot estimates emitted"),
		degraded: reg.Counter("rim_stream_estimates_degraded_total", "finalized estimates emitted with the Degraded flag"),
		failures: reg.Counter("rim_stream_analysis_failures_total", "sliding-window analysis failures"),
		fallback: reg.Counter("rim_stream_fallback_hops_total", "analysis hops run on a reduced sub-array"),
		deadline: reg.Counter("rim_hop_deadline_exceeded_total", "analysis hops that exceeded their deadline and emitted degraded placeholders"),
		dead:     reg.Gauge("rim_stream_dead_antennas", "antennas currently considered dead"),
		lagH:     reg.Timer("rim_stream_lag_seconds", "ingest-to-emit latency of the newest slot finalized per hop"),
		lagG:     reg.Gauge("rim_stream_watermark_lag_seconds", "end-to-end lag of the emit watermark behind ingest"),
		scratchGets: reg.Counter("rim_scratch_pool_gets_total",
			"hop-scratch borrows from the process-wide streaming scratch pool"),
		scratchNews: reg.Counter("rim_scratch_pool_news_total",
			"hop-scratch borrows that had to allocate a fresh scratch (pool miss)"),
		scratchBytes: reg.Gauge("rim_scratch_pool_bytes",
			"backing bytes held by the hop scratch most recently returned to the pool: its plane store and its matrix arena, one slab per matrix of the largest hop it served"),
	}
}

// NewStreamer builds a streaming pipeline for CSI with the given shape.
// rate is the packet rate in Hz.
func NewStreamer(cfg StreamConfig, rate float64, numAnts, numTx, numSub int) (*Streamer, error) {
	if cfg.Core.Array == nil {
		return nil, fmt.Errorf("core: StreamConfig.Core.Array is required")
	}
	if !trrs.ValidRate(rate) {
		return nil, fmt.Errorf("core: stream rate must be in (0, %g] Hz, got %v", trrs.MaxRate, rate)
	}
	if numAnts <= 0 || numTx <= 0 || numSub <= 0 {
		return nil, fmt.Errorf("core: stream shape (%d antennas, %d tx, %d tones) must be positive",
			numAnts, numTx, numSub)
	}
	if cfg.Core.Array.NumAntennas() != numAnts {
		return nil, fmt.Errorf("core: array has %d antennas but stream has %d",
			cfg.Core.Array.NumAntennas(), numAnts)
	}
	if cfg.SpanSeconds <= 0 {
		cfg.SpanSeconds = 4
	}
	if cfg.HopSeconds <= 0 {
		cfg.HopSeconds = 0.5
	}
	// Default the pipeline config once, so the streamer, the per-hop
	// analysis and the incremental engine all read the same operating point.
	cfg.Core.applyDefaults()
	w := cfg.Core.WindowSeconds
	if cfg.SpanSeconds < 3*w {
		cfg.SpanSeconds = 3 * w
	}
	st := &Streamer{
		cfg:       cfg,
		rate:      rate,
		numAnts:   numAnts,
		numTx:     numTx,
		numSub:    numSub,
		span:      int(cfg.SpanSeconds * rate),
		hop:       int(cfg.HopSeconds * rate),
		guard:     int(math.Ceil(w * rate)),
		wSlots:    windowSlots(w, rate),
		hopFactor: 1,
	}
	st.log = cfg.Core.logger()
	st.ob = newStreamObs(cfg.Core.Obs, cfg.Core.Trace)
	st.trc = cfg.Core.Trace
	st.flight = cfg.Core.Flight
	st.qual = cfg.Core.Quality
	st.t0 = time.Now()
	st.lagOn = st.trc != nil || st.ob.lagH != nil
	st.raw = trrs.NewRawRing(numAnts, numTx, numSub)
	if !cfg.recompute {
		inc, err := trrs.NewIncrementalPrecision(rate, numAnts, numTx, st.wSlots, cfg.Core.Precision)
		if err != nil {
			return nil, err
		}
		inc.SetKernel(cfg.Core.Kernel)
		inc.SetObs(cfg.Core.Obs)
		inc.SetTrace(cfg.Core.Trace)
		inc.UseRaw(st.raw)
		st.inc = inc
		st.remapHdr = map[[2]int]*trrs.Matrix{}
	}
	st.slotRows = make([][][]complex128, numAnts)
	for a := range st.slotRows {
		st.slotRows[a] = make([][]complex128, numTx)
	}
	st.aliveScratch = make([]int, 0, numAnts)
	st.absent = make([]bool, numAnts)
	st.liveScratch = make([]float64, 0, numAnts)
	st.zeroRow = make([]complex128, numSub)
	st.lastGood = make([]complex128, numAnts*numTx*numSub)
	st.goodSet = make([]bool, numAnts*numTx)
	st.deadWin = int(rate)
	if st.deadWin < 20 {
		st.deadWin = 20
	}
	st.recentMiss = make([][]bool, numAnts)
	for a := range st.recentMiss {
		st.recentMiss[a] = make([]bool, st.deadWin)
	}
	st.recentCnt = make([]int, numAnts)
	st.energyEMA = make([]float64, numAnts)
	for a := range st.energyEMA {
		st.energyEMA[a] = -1 // unset
	}
	st.emaAlpha = 4 / rate
	if st.emaAlpha > 1 {
		st.emaAlpha = 1
	}
	st.dead = make([]bool, numAnts)
	st.declarePeak()
	return st, nil
}

// declarePeak tells the window store and the incremental engine the
// largest window the stream holds — the window a trim keeps (the span, or
// three guards if more) plus one stretched hop — and the stretched hop
// between two refreshes. The store caps its ring at the window, the
// engine sizes its pair-matrix rings by it, and the planes a hop's
// refreshes normalize fit the refresh reach plus the hop (see
// trrs.Incremental.SetPeakWindow). A restart point pinned right after a
// hop's trim (see Pin) fits the same peak until the next hop.
func (st *Streamer) declarePeak() {
	stride := st.hopFactor * st.hop
	peak := max(st.span, 3*st.guard) + stride
	st.raw.SetPeak(peak)
	if st.inc != nil {
		st.inc.SetPeakWindow(peak, stride)
	}
}

// Latency returns the worst-case output latency in seconds.
func (st *Streamer) Latency() float64 {
	return (float64(st.guard) + float64(st.hop)) / st.rate
}

// Health returns a snapshot of the stream's data-quality state.
func (st *Streamer) Health() Health {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.healthLocked()
}

// healthLocked builds the Health snapshot with st.mu already held. The
// flight-recorder offer sites inside analyze and updateDeadDetection call
// this directly (calling Health there would self-deadlock).
func (st *Streamer) healthLocked() Health {
	h := Health{
		Slots:               st.samples,
		CorruptSlots:        st.corruptSlots,
		ConsecutiveFailures: st.failures,
		TotalFailures:       st.totalFails,
		LastError:           copyHealthErr(st.lastErr),
	}
	if st.samples > 0 {
		h.LossRate = float64(st.missTotal) / float64(st.samples*st.numAnts)
	}
	for a, d := range st.dead {
		if d {
			h.DeadAntennas = append(h.DeadAntennas, a)
		}
	}
	h.Fallback = len(h.DeadAntennas) > 0
	return h
}

// Push ingests one CSI snapshot with every antenna present (shape
// [ant][tx][tone]) and returns any newly finalized per-slot estimates,
// oldest first. The returned Estimate.T is the absolute time since the
// stream began. See PushMasked for the error contract.
func (st *Streamer) Push(snapshot [][][]complex128) ([]Estimate, error) {
	return st.PushMasked(snapshot, nil)
}

// PushMasked ingests one CSI snapshot with per-antenna availability:
// missing[a] marks antenna a's sample as lost or interpolated this slot,
// so the loss mask flows into the analysis instead of being fabricated as
// all-present. A missing antenna's rows may carry a caller-side
// interpolation (used as the substitute) or be nil (the last good row is
// held). Rows containing NaN/Inf or garbage amplitudes are rejected and
// treated as missing — a single NaN would otherwise poison every TRRS
// window that touches it.
//
// The snapshot is validated in full before any internal state changes, so
// a shape error never leaves a partially appended slot behind. Shape
// errors are returned as plain errors; analysis failures are returned
// wrapped in ErrAnalysis (with degraded placeholder estimates), recorded
// in Health, and leave the stream usable.
func (st *Streamer) PushMasked(snapshot [][][]complex128, missing []bool) ([]Estimate, error) {
	return st.PushMaskedCtx(context.Background(), snapshot, missing)
}

// SetHopFactor stretches (f > 1) or restores (f = 1) the analysis hop to
// f×HopSeconds — the "degrade to a coarser hop" overload response: an
// overloaded host halves a session's analysis CPU by hopping half as
// often, trading output latency for throughput while keeping the estimate
// stream contiguous. f is clamped to [1, 4] (beyond 4 the widened hop
// would outgrow the analysis span). Goroutine-safe.
func (st *Streamer) SetHopFactor(f int) {
	if f < 1 {
		f = 1
	}
	if f > 4 {
		f = 4
	}
	st.mu.Lock()
	st.hopFactor = f
	st.declarePeak()
	st.mu.Unlock()
}

// HopFactor returns the current hop stretch factor.
func (st *Streamer) HopFactor() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hopFactor
}

// PushMaskedCtx is PushMasked with an analysis budget: when the snapshot
// completes a hop, the sliding-window analysis honors ctx's deadline (and
// StreamConfig.HopDeadline, whichever is sooner) at its stage boundaries,
// emitting degraded placeholders for whatever it could not resolve in
// time. ctx does not bound the ingest itself, which is O(antennas) cheap.
func (st *Streamer) PushMaskedCtx(ctx context.Context, snapshot [][][]complex128, missing []bool) ([]Estimate, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// Phase 1: full validation, no mutation (a snapshot rejected at
	// antenna k must not have appended rows for antennas < k).
	if len(snapshot) != st.numAnts {
		return nil, fmt.Errorf("core: snapshot has %d antennas, want %d", len(snapshot), st.numAnts)
	}
	if missing != nil && len(missing) != st.numAnts {
		return nil, fmt.Errorf("core: missing mask has %d antennas, want %d", len(missing), st.numAnts)
	}
	absent := st.absent
	clear(absent)
	corrupt := false
	for a := 0; a < st.numAnts; a++ {
		if missing != nil && missing[a] {
			absent[a] = true
			if snapshot[a] == nil {
				continue // hold-last substitution
			}
		}
		if len(snapshot[a]) != st.numTx {
			return nil, fmt.Errorf("core: snapshot antenna %d has %d tx, want %d",
				a, len(snapshot[a]), st.numTx)
		}
		for tx := 0; tx < st.numTx; tx++ {
			if len(snapshot[a][tx]) != st.numSub {
				return nil, fmt.Errorf("core: snapshot antenna %d tx %d has %d tones, want %d",
					a, tx, len(snapshot[a][tx]), st.numSub)
			}
			if !absent[a] && !csi.RowSane(snapshot[a][tx]) {
				// Corrupt sample: reject the whole antenna for this slot.
				absent[a] = true
				corrupt = true
			}
		}
	}

	// Phase 2: commit.
	slot := int64(st.samples) // absolute slot ID of this snapshot
	ingest := st.ob.ingest.Start(-1, slot)
	st.samples++
	st.ob.frames.Inc()
	corruptFlag := int64(0)
	if corrupt {
		st.corruptSlots++
		st.ob.corrupt.Inc()
		corruptFlag = 1
	}
	// slotRows names the rows this slot commits; the window store copies
	// them, so nothing here outlives the push.
	rows := st.slotRows
	for a := 0; a < st.numAnts; a++ {
		switch {
		case !absent[a]:
			copy(rows[a], snapshot[a])
		case snapshot[a] != nil && len(snapshot[a]) == st.numTx && st.rowsShapedAndSane(snapshot[a]):
			// Caller-side interpolation: usable data, still flagged missing.
			copy(rows[a], snapshot[a])
		default:
			for tx := range rows[a] {
				rows[a][tx] = st.goodRow(a, tx)
			}
		}
		if absent[a] {
			st.missTotal++
			st.ob.missing.Inc()
		}
	}
	absentCnt := int64(0)
	for _, m := range absent {
		if m {
			absentCnt++
		}
	}
	if err := st.commit(rows, absent); err != nil {
		return nil, err
	}
	for a := 0; a < st.numAnts; a++ {
		if !absent[a] {
			for tx := 0; tx < st.numTx; tx++ {
				k := a*st.numTx + tx
				copy(st.lastGood[k*st.numSub:(k+1)*st.numSub], rows[a][tx])
				st.goodSet[k] = true
			}
		}
	}
	for a := range rows {
		clear(rows[a])
	}
	st.updateDeadDetection(absent, snapshot)
	end := ingest.EndArgs(absentCnt, corruptFlag)
	if st.lagOn {
		// With a recorder the ingest span runs on nowNs's clock, so its
		// end is the slot's ingest stamp; without one, read the clock.
		if st.trc == nil {
			end = st.nowNs()
		}
		st.ingestNs = append(st.ingestNs, end)
	}

	st.pending++
	if st.pending < st.hop*st.hopFactor || st.bufLen() < st.guard*2 {
		return nil, nil
	}
	st.pending = 0
	return st.analyze(false, ctx)
}

// goodRow returns the row held for (a, tx) when its antenna is missing:
// a copy of the last accepted one, or the zero row (TRRS-neutral) before
// any.
func (st *Streamer) goodRow(a, tx int) []complex128 {
	k := a*st.numTx + tx
	if !st.goodSet[k] {
		return st.zeroRow
	}
	return st.lastGood[k*st.numSub : (k+1)*st.numSub]
}

// commit copies one slot's rows and loss mask into the window store,
// through the incremental engine when there is one, so that the engine's
// window always equals the stream's. A pinned restart point whose slots
// the write would overwrite is copied out first (see Pin).
func (st *Streamer) commit(rows [][][]complex128, mask []bool) error {
	if st.raw.Blocked() {
		st.materializePin()
	}
	if st.inc != nil {
		if err := st.inc.Append(rows); err != nil {
			return err
		}
	} else {
		st.raw.Append(rows)
	}
	copy(st.raw.Flags(st.raw.End()-1), mask)
	return nil
}

// rowsShapedAndSane reports whether a provided substitute has full shape
// and finite values.
func (st *Streamer) rowsShapedAndSane(rows [][]complex128) bool {
	for tx := 0; tx < st.numTx; tx++ {
		if len(rows[tx]) != st.numSub || !csi.RowSane(rows[tx]) {
			return false
		}
	}
	return true
}

const (
	// deadMissFrac declares an antenna dead when the fraction of its
	// samples missing or rejected over the trailing detection window
	// reaches it; the antenna revives below half of it.
	deadMissFrac = 0.9
	// deadEnergyFrac declares an antenna dead when its smoothed CSI power
	// falls below this fraction of the median power of the live antennas
	// (-17 dB: far below any AGC step, far above a noise-only dead RF
	// chain); the antenna revives above 5x it.
	deadEnergyFrac = 0.02
)

// updateDeadDetection maintains the trailing missing-rate ring and the
// per-antenna power EMA, then applies the dead/revive hysteresis: an
// antenna is dead when nearly all its recent samples are missing (NIC
// stopped reporting) or when its power collapses relative to the other
// antennas (RF chain broke but still reports noise).
func (st *Streamer) updateDeadDetection(absent []bool, snapshot [][][]complex128) {
	for a := 0; a < st.numAnts; a++ {
		if st.recentMiss[a][st.recentIdx] {
			st.recentCnt[a]--
		}
		st.recentMiss[a][st.recentIdx] = absent[a]
		if absent[a] {
			st.recentCnt[a]++
		}
		if !absent[a] {
			var e float64
			for tx := 0; tx < st.numTx; tx++ {
				e += sigproc.Energy(snapshot[a][tx])
			}
			if st.energyEMA[a] < 0 {
				st.energyEMA[a] = e
			} else {
				st.energyEMA[a] += st.emaAlpha * (e - st.energyEMA[a])
			}
		}
	}
	st.recentIdx = (st.recentIdx + 1) % st.deadWin
	if st.recentN < st.deadWin {
		st.recentN++
	}
	if st.recentN < st.deadWin/2 {
		return // not enough history to judge
	}

	// Median power of the currently-live antennas, the reference level.
	live := st.liveScratch[:0]
	for a := 0; a < st.numAnts; a++ {
		if !st.dead[a] && st.energyEMA[a] >= 0 {
			live = append(live, st.energyEMA[a])
		}
	}
	medPower := sigproc.MedianInPlace(live)

	deadChanged := false
	for a := 0; a < st.numAnts; a++ {
		missFrac := float64(st.recentCnt[a]) / float64(st.recentN)
		starved := medPower > 0 && st.energyEMA[a] >= 0 &&
			st.energyEMA[a] < deadEnergyFrac*medPower
		recovered := medPower > 0 && st.energyEMA[a] >= 5*deadEnergyFrac*medPower
		if !st.dead[a] {
			if missFrac >= deadMissFrac || starved {
				st.dead[a] = true
				deadChanged = true
				st.log.Warn("antenna declared dead",
					"antenna", a, "miss_frac", missFrac, "starved", starved)
				st.flight.Offer(trace.ReasonDeadAntenna, -1, st.healthLocked())
			}
		} else if missFrac < deadMissFrac/2 && !starved && (recovered || medPower == 0) {
			st.dead[a] = false
			deadChanged = true
			st.log.Info("antenna revived", "antenna", a, "miss_frac", missFrac)
		}
	}
	if deadChanged && st.ob.dead != nil {
		n := 0
		for _, d := range st.dead {
			if d {
				n++
			}
		}
		st.ob.dead.Set(float64(n))
	}
}

// Flush finalizes everything buffered (end of stream). Analysis failures
// during a flush are recorded in Health (see Health.LastError) and yield
// degraded placeholder estimates, so the returned series stays contiguous.
func (st *Streamer) Flush() []Estimate {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.bufLen() == 0 {
		return nil
	}
	out, _ := st.analyze(true, context.Background())
	return out
}

func (st *Streamer) bufLen() int { return st.raw.Len() }

// nowNs is the tracing clock: the recorder's epoch when a recorder is
// wired, so lag samples share the trace's timeline, and the streamer's own
// start time otherwise (metrics-only lag instrumentation).
func (st *Streamer) nowNs() int64 {
	if st.trc != nil {
		return st.trc.Now()
	}
	return int64(time.Since(st.t0))
}

// aliveAntennas returns the indices of antennas not currently dead. The
// result aliases a per-Streamer scratch, overwritten by the next call.
func (st *Streamer) aliveAntennas() []int {
	out := st.aliveScratch[:0]
	for a := 0; a < st.numAnts; a++ {
		if !st.dead[a] {
			out = append(out, a)
		}
	}
	st.aliveScratch = out
	return out
}

// analyze reruns the batch pipeline over the buffered window and emits the
// estimates between the finalized frontier and the guard region (or the
// end, when flushing). When antennas have died it falls back to the
// surviving sub-array; when analysis is impossible or fails it emits
// degraded placeholders so the output stays contiguous, records the
// failure in Health, and returns the error wrapped in ErrAnalysis. The hop
// runs under a deadline (the sooner of cfg.HopDeadline from now and ctx's
// deadline, if either is set); a hop that exceeds it emits degraded
// placeholders for the unresolved slots instead of stalling the stream.
func (st *Streamer) analyze(flush bool, ctx context.Context) ([]Estimate, error) {
	n := st.bufLen()
	// Hops are numbered from 1; hop 0 is the batch pipeline's scope. The
	// hop span's args record the absolute slot window it analyzed, which
	// is what Lineage uses to attribute pre-hop frame events.
	st.hopSeq++
	hop := st.hopSeq
	winLo := int64(st.dropped)
	defer st.ob.hop.Start(hop, winLo).EndArgs(winLo, winLo+int64(n))
	upTo := n - st.guard
	if flush {
		upTo = n
	}
	// The hop emits the local slots [firstLocal, upTo): its emit window.
	firstLocal := st.finalized - st.dropped

	alive := st.aliveAntennas()
	fallback := len(alive) < st.numAnts
	if fallback {
		st.ob.fallback.Inc()
	}

	// Hop budget: the sooner of the configured per-hop deadline and the
	// caller context's deadline. Zero values leave the hop unbounded.
	var dl time.Time
	if st.cfg.HopDeadline > 0 {
		dl = time.Now().Add(st.cfg.HopDeadline)
	}
	if ctx != nil {
		if cdl, ok := ctx.Deadline(); ok && (dl.IsZero() || cdl.Before(dl)) {
			dl = cdl
		}
	}

	var res *Result
	var err error
	if len(alive) < 2 {
		err = fmt.Errorf("%w: only %d live antenna(s), need 2 for alignment", ErrAnalysis, len(alive))
	} else {
		res, err = st.analyzeAlive(alive, hop, ctx, dl, firstLocal, upTo)
		if err != nil {
			err = fmt.Errorf("%w: %v", ErrAnalysis, err)
		}
	}
	if res != nil && res.DeadlineExceeded {
		st.ob.deadline.Inc()
		st.log.Warn("hop deadline exceeded; emitted degraded placeholders",
			"hop", hop, "budget", st.cfg.HopDeadline)
		st.flight.Offer(trace.ReasonHopDeadline, hop, st.healthLocked())
	}
	if err != nil {
		st.failures++
		st.totalFails++
		st.lastErr = err
		st.ob.failures.Inc()
		st.log.Warn("stream analysis failed",
			"err", err, "consecutive", st.failures, "alive", len(alive))
		st.flight.Offer(trace.ReasonAnalysisFailure, hop, st.healthLocked())
	} else {
		st.failures = 0
		st.lastErr = nil
	}

	var out []Estimate
	var degCount int
	// Estimator-quality telemetry of the hop's newly finalized slots:
	// movement-indicator (κ) samples, calibration outcomes of moving
	// estimates — a moving slot whose indicator sits at or above the
	// hysteresis release level contradicts the zero-velocity evidence
	// (the static run the ZUPT extractor would trust) and counts as a
	// bad outcome — and alignment residuals of resolved slots.
	release := st.cfg.Core.releaseLevel()
	var kappaSum float64
	var kappaN, contradictions int
	dt := 1 / st.rate
	for local := firstLocal; local < upTo; local++ {
		if local < 0 {
			continue
		}
		var e Estimate
		switch {
		case res != nil && local < len(res.Estimates):
			e = res.Estimates[local]
		default:
			// Placeholder: no analysis for this slot — never fabricate
			// motion, never emit NaN speeds.
			e = Estimate{HeadingBody: math.NaN(), Degraded: true}
		}
		e.T = float64(st.dropped+local) * dt
		if fallback {
			e.Degraded = true
		}
		if st.slotMissFrac(local) >= degradedMissFrac {
			e.Degraded = true
		}
		st.ob.emitted.Inc()
		var degFlag int64
		if e.Degraded {
			st.ob.degraded.Inc()
			degFlag = 1
			degCount++
		}
		if st.qual != nil && res != nil {
			if local < len(res.MovementIndicator) {
				k := res.MovementIndicator[local]
				st.qual.ObserveKappa(k)
				kappaSum += k
				kappaN++
			}
			if e.Moving {
				contra := local < len(res.MovementIndicator) && res.MovementIndicator[local] >= release
				if contra {
					contradictions++
				}
				st.qual.ObserveOutcome(e.Confidence, !e.Degraded && !contra)
				if !e.Degraded && e.Confidence > 0 {
					st.qual.ObserveAlignResidual(1 - e.Confidence)
				}
			}
		}
		st.trc.Emit(trace.KindEstimate, hop, int64(st.dropped+local), degFlag, int64(e.Kind))
		out = append(out, e)
	}
	if st.qual != nil && res != nil {
		// Peak sharpness of segments finalized this hop (a segment is
		// observed once, when its end slot crosses the finalized frontier).
		for _, seg := range res.Segments {
			if seg.End > firstLocal && seg.End <= upTo && seg.Kind != MotionNone {
				st.qual.ObserveSharpness(seg.Confidence)
			}
		}
		if kappaN > 0 {
			// Per-hop quality event: A = ZUPT-contradiction count, B =
			// mean movement indicator of the hop's finalized slots in
			// permille.
			st.trc.Emit(trace.KindQuality, hop, winLo,
				int64(contradictions), int64(kappaSum/float64(kappaN)*1000))
		}
	}
	if upTo > st.finalized-st.dropped {
		st.finalized = st.dropped + upTo
	}
	// Ingest-to-emit lag of the newest slot this hop finalized: the
	// stream's watermark. One sample per hop keeps the histogram cheap
	// while still bounding the end-to-end latency distribution.
	if st.lagOn && len(out) > 0 {
		if local := upTo - 1; local >= 0 && local < len(st.ingestNs) {
			start := st.ingestNs[local]
			now := st.nowNs()
			lagSec := float64(now-start) / 1e9
			st.ob.lagH.Observe(lagSec)
			st.perObs.Lag.Observe(lagSec)
			st.ob.lagG.Set(lagSec)
			st.trc.EmitAt(trace.KindLag, hop, int64(st.dropped+local), 0, 0, start, now-start)
		}
	}
	if degCount > 0 {
		st.flight.Offer(trace.ReasonDegradedEstimates, hop, st.healthLocked())
	}
	// Trim the buffer to the span, but never past the finalized frontier
	// minus the guard (the next analysis still needs context).
	excess := n - st.span
	if keepFrom := st.finalized - st.dropped - 2*st.guard; excess > keepFrom {
		excess = keepFrom
	}
	if excess > 0 {
		if st.inc != nil {
			st.inc.DropFront(excess)
		} else {
			st.raw.DropFront(excess)
		}
		if st.lagOn && excess <= len(st.ingestNs) {
			st.ingestNs = st.ingestNs[:copy(st.ingestNs, st.ingestNs[excess:])]
		}
		st.dropped += excess
	}
	return out, err
}

// analyzeAlive runs the batch pipeline over the buffered window restricted
// to the given live antennas, re-deriving the pair geometry from the
// surviving elements when some are dead. With the incremental engine it
// builds the pipeline from the maintained normalization and base matrices
// (only the rows invalidated since the last hop are recomputed) and
// analyzes only the movement segments that overlap the hop's emit window
// [emitLo, emitHi), the local slots analyze keeps; the test-only recompute
// oracle rebuilds everything from the raw buffer and analyzes every
// segment, the seed's reference behavior.
func (st *Streamer) analyzeAlive(alive []int, hop int64, ctx context.Context, dl time.Time, emitLo, emitHi int) (*Result, error) {
	cfg := st.cfg.Core
	// Stamp every trace event the per-hop pipeline emits with this hop's
	// causal ID, and keep the incremental engine's row events in sync.
	cfg.traceHop = hop
	cfg.hopDeadline = dl
	cfg.hopCtx = ctx
	// Borrow hop-lifetime scratch from the process-wide pool: the derived
	// (virtual-massive) matrices of this pass and the row ring they are
	// filtered through, and the CSI planes its refreshes normalize, reuse
	// the backings a previous hop — possibly of another session — built.
	// The result retains none of them, so the engine gives the scratch
	// back and it returns to the pool as soon as the analysis is done.
	scr := getHopScratch(&st.ob)
	defer putHopScratch(scr, &st.ob)
	cfg.scratch = scr
	cfg.po = st.ob.pipe
	if st.inc != nil {
		st.inc.SetHop(hop)
		st.inc.Lend(scr)
		defer st.inc.Lend(nil)
	}
	if len(alive) < st.numAnts {
		sub, err := cfg.Array.Subset(alive)
		if err != nil {
			return nil, err
		}
		cfg.Array = sub
	}
	if st.inc == nil {
		return ProcessSeries(st.windowSeries(alive), cfg)
	}

	cfg.emitLo, cfg.emitHi = emitLo, emitHi
	eng, err := st.inc.EngineView(alive)
	if err != nil {
		return nil, err
	}
	// Base matrices come from the incrementally maintained per-pair state,
	// keyed by absolute antenna index: the hop's pairs are refreshed in
	// one ExtendMatrices pass, inside the pipeline's build stage. The list
	// holds no reversed twin (see neededPairs): the derived matrices read
	// a twin's rows from its source. Remap the identity so downstream
	// consumers see the same local pair indices the recompute path yields.
	base := func(pairs []trrs.PairSpec) ([]*trrs.Matrix, error) {
		abs := st.absPairs[:0]
		for _, pr := range pairs {
			abs = append(abs, trrs.PairSpec{I: alive[pr.I], J: alive[pr.J]})
		}
		st.absPairs = abs
		ms, err := st.inc.ExtendMatrices(abs)
		if err != nil {
			return nil, err
		}
		out := st.baseMs[:0]
		for k, m := range ms {
			i, j := pairs[k].I, pairs[k].J
			if m.I != i || m.J != j {
				// Remapped identity: reuse a cached header per local pair
				// so the steady-state fallback path does not allocate one
				// every hop.
				hdr, ok := st.remapHdr[[2]int{i, j}]
				if !ok {
					hdr = &trrs.Matrix{}
					st.remapHdr[[2]int{i, j}] = hdr
				}
				*hdr = trrs.Matrix{I: i, J: j, W: m.W, Rate: m.Rate, Vals: m.Vals}
				m = hdr
			}
			out = append(out, m)
		}
		st.baseMs = out
		return out, nil
	}
	// Once the hop is done, drop every reference to its matrices, the
	// base list's and a remapped header's, so the session keeps none
	// alive: a twin ExtendMatrices was asked for would live in the pooled
	// arena.
	defer func() {
		clear(st.baseMs)
		for _, hdr := range st.remapHdr {
			hdr.Vals = nil
		}
	}()
	p, err := newPipelineFromEngine(eng, base, st.missFrac(alive), cfg)
	if err != nil {
		return nil, err
	}
	return p.Process(), nil
}

// windowSeries returns the window restricted to the given antennas as a
// series whose rows alias the window store: valid until the next push.
// Only the recompute oracle and tests build one; it allocates the row
// headers each call.
func (st *Streamer) windowSeries(ants []int) *csi.Series {
	n, first := st.bufLen(), st.raw.Start()
	s := &csi.Series{
		Rate:    st.rate,
		NumAnts: len(ants),
		NumTx:   st.numTx,
		NumSub:  st.numSub,
		H:       make([][][][]complex128, len(ants)),
		Missing: make([][]bool, len(ants)),
	}
	for i, a := range ants {
		s.H[i] = make([][][]complex128, st.numTx)
		for tx := range s.H[i] {
			s.H[i][tx] = make([][]complex128, n)
			for t := range n {
				s.H[i][tx][t] = st.raw.Row(first+t, a, tx)
			}
		}
		s.Missing[i] = make([]bool, n)
		for t := range n {
			s.Missing[i][t] = st.raw.Flags(first + t)[a]
		}
	}
	return s
}

// missFrac returns, per window slot, the fraction of the given antennas
// whose sample was missing or rejected.
func (st *Streamer) missFrac(ants []int) []float64 {
	out := make([]float64, st.bufLen())
	for t := range out {
		fl := st.raw.Flags(st.raw.Start() + t)
		miss := 0
		for _, a := range ants {
			if fl[a] {
				miss++
			}
		}
		out[t] = float64(miss) / float64(len(ants))
	}
	return out
}

// slotMissFrac returns the fraction of antennas whose sample at the given
// local slot was missing or rejected.
func (st *Streamer) slotMissFrac(local int) float64 {
	if local >= st.bufLen() {
		return 0
	}
	miss := 0
	for _, m := range st.raw.Flags(st.raw.Start() + local) {
		if m {
			miss++
		}
	}
	return float64(miss) / float64(st.numAnts)
}

// StreamSeries is a convenience that replays a processed Series through a
// Streamer (testing and offline "as-if-live" analysis), feeding the
// series' Missing mask through PushMasked. Analysis failures degrade the
// affected slots instead of aborting the replay; ingest errors abort.
func StreamSeries(s *csi.Series, cfg StreamConfig) ([]Estimate, error) {
	st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		return nil, err
	}
	var out []Estimate
	snap := make([][][]complex128, s.NumAnts)
	miss := make([]bool, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
	for t := 0; t < s.NumSlots(); t++ {
		for a := 0; a < s.NumAnts; a++ {
			for tx := 0; tx < s.NumTx; tx++ {
				snap[a][tx] = s.H[a][tx][t]
			}
			miss[a] = s.Missing != nil && a < len(s.Missing) && t < len(s.Missing[a]) && s.Missing[a][t]
		}
		es, err := st.PushMasked(snap, miss)
		out = append(out, es...)
		if err != nil && !errors.Is(err, ErrAnalysis) {
			return nil, err
		}
	}
	return append(out, st.Flush()...), nil
}
