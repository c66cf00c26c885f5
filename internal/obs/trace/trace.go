// Package trace is RIM's causal frame-lineage layer: a lock-light,
// fixed-capacity ring-buffer event recorder that captures typed pipeline
// events — frame acquisition and ingest, fault injections, TRRS row
// fill/reuse decisions, analysis-stage spans, fusion steps and estimate
// emissions — each stamped with the causal hop ID of the sliding-window
// analysis that consumed it, so a full frame→estimate lineage can be
// reconstructed after the fact.
//
// The package sits on top of internal/obs and follows the same contract:
// a nil *Recorder is valid everywhere and makes every operation a no-op
// (one nil check — no clock reads, no atomics), so un-traced runs pay
// nothing (guarded by TestTraceOverheadGuard at the repo root). Recording
// is wait-free: an event claims a slot with one atomic increment and
// publishes with per-field atomic stores; when the ring is full the oldest
// events are overwritten (drop-oldest semantics — the recorder is a black
// box of the recent past, not a lossless log).
//
// A Stage times one pipeline stage into both its latency histogram and
// its trace lane, both named after the stage's Kind.
//
// Two consumers are built on the recorder: Chrome/Perfetto trace-event
// JSON export (WriteJSON, served at /debug/rimtrace and dumped by the
// -trace-out flag of rimtrack/rimsim) and the flight recorder (Flight),
// which snapshots the last window of events into a postmortem bundle when
// an estimate degrades, analysis fails, or an antenna dies.
package trace

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"rim/internal/obs"
)

// Kind enumerates the typed events the pipeline records.
type Kind uint8

const (
	// KindNone is the zero Kind (an empty slot; never emitted).
	KindNone Kind = iota
	// KindFrameAcquired is one packet measured on one NIC during
	// acquisition (csi.Collect). Frame = slot, A = NIC.
	KindFrameAcquired
	// KindPacketLost is one packet lost during acquisition. Frame = slot,
	// A = NIC, B = 1 for injected bursty loss, 0 for baseline i.i.d. loss.
	KindPacketLost
	// KindFault is one injected fault event (faults.Injector). A = fault
	// code (FaultLoss..FaultInterference), B = antenna or NIC index.
	KindFault
	// KindIngest is the span of one snapshot commit into the streamer
	// (validate + substitute + dead detection). Frame = absolute slot,
	// A = antennas missing/rejected this slot, B = 1 when the slot carried
	// a corrupt (NaN/garbage) row.
	KindIngest
	// KindHop is the span of one sliding-window analysis hop. Hop is the
	// hop ID; A and B are the absolute slot range [A, B) the hop analyzed.
	KindHop
	// KindBuild is the TRRS base-matrix build/extend span of one pipeline
	// construction (within a hop for streams).
	KindBuild
	// KindMovement is the movement-detection stage span of one Process.
	KindMovement
	// KindAlign is the alignment-tracking + reckoning span of one movement
	// segment. Frame = segment start slot (window-local).
	KindAlign
	// KindSegment marks one resolved movement segment. Frame = start slot,
	// A = end slot (window-local), B = core.MotionKind.
	KindSegment
	// KindTRRSFill marks base-matrix rows computed from scratch, one
	// event per build (trrs.Engine.BaseMatrices) or incremental refresh
	// (trrs.Incremental.ExtendMatrices, ExtendMatrix included).
	// Frame = -1, A = full rows filled (an incremental refresh's partly
	// swept rows are not counted), B = pairs requested by a build or
	// refreshed by a refresh.
	KindTRRSFill
	// KindTRRSExtend marks one incremental ExtendMatrix decision.
	// Frame = PairCode, A = rows reused (carried over), B = rows stale
	// (invalidated and wholly or partly recomputed).
	KindTRRSExtend
	// KindFusionStep marks one fusion-backend dead-reckoning step.
	// A = input quality in permille; B = particles alive after the step
	// (particle backend) or 1 when the step carried zero-velocity
	// pseudo-measurements (ESKF backend).
	KindFusionStep
	// KindEstimate marks one finalized estimate emission. Frame = absolute
	// slot, A = 1 when degraded, B = core.MotionKind.
	KindEstimate
	// KindLag is the ingest→emit watermark span of one hop: it starts at
	// the ingest of the hop's oldest newly finalized slot and ends at
	// emission. Frame = that slot's absolute index.
	KindLag
	// KindTrigger marks a flight-recorder trigger. A = trigger reason
	// ordinal (index into Reasons).
	KindTrigger
	// KindZUPT marks one zero-velocity (ZUPT) interval resolved by the
	// movement detector. Frame = start slot, A = end slot (exclusive,
	// window-local like KindSegment), B = interval confidence in permille.
	KindZUPT
	// KindQuality marks one estimator-quality verdict: a per-hop streamer
	// quality summary or a quality-monitor state transition (see
	// internal/obs/quality). A = the monitor state ordinal (0 ok, 1 warn,
	// 2 alert), B = the windowed fraction-outside-band in permille.
	KindQuality
	// KindDerived is the span of one pass's derived matrices (pair average
	// + virtual massive), built before its first analyzed segment.
	KindDerived

	numKinds
)

// kinds names every Kind, and a pipeline stage's kind the help text of its
// latency histogram, rim_<name>_seconds: this one table names a stage in
// /metrics, in the Perfetto lanes and in experiments.StageLatency.
var kinds = [numKinds]struct{ name, stageHelp string }{
	KindNone:          {name: "none"},
	KindFrameAcquired: {name: "frame_acquired"},
	KindPacketLost:    {name: "packet_lost"},
	KindFault:         {name: "fault"},
	KindIngest:        {"ingest", "per-snapshot ingest (validate + commit) latency"},
	KindHop:           {"hop", "sliding-window analysis latency per hop"},
	KindBuild:         {"trrs_build", "TRRS base-matrix build/extend latency per pipeline construction"},
	KindMovement:      {"movement", "movement-detection stage latency per Process"},
	KindAlign:         {"align", "alignment tracking + reckoning latency per analyzed movement segment (streams: those overlapping the hop's emit window)"},
	KindSegment:       {name: "segment"},
	KindTRRSFill:      {name: "trrs_fill"},
	KindTRRSExtend:    {name: "trrs_extend"},
	KindFusionStep:    {name: "fusion_step"},
	KindEstimate:      {name: "estimate"},
	KindLag:           {name: "lag"},
	KindTrigger:       {name: "trigger"},
	KindZUPT:          {name: "zupt"},
	KindQuality:       {name: "quality"},
	KindDerived:       {"trrs_derived", "derived-matrix (pair average + virtual massive) latency per pass that analyzes a movement segment"},
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kinds) && kinds[k].name != "" {
		return kinds[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Metric returns the name of the latency histogram stage kind k feeds,
// rim_<name>_seconds, or "" when k is no stage.
func (k Kind) Metric() string {
	if int(k) >= len(kinds) || kinds[k].stageHelp == "" {
		return ""
	}
	return "rim_" + kinds[k].name + "_seconds"
}

// Stages returns the stage kinds, in kind order.
func Stages() []Kind {
	var out []Kind
	for k := range kinds {
		if kinds[k].stageHelp != "" {
			out = append(out, Kind(k))
		}
	}
	return out
}

// MarshalText encodes the kind as its name (JSON-friendly).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name back into its ordinal.
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range kinds {
		if n.name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", s)
}

// Fault codes carried in KindFault's A argument.
const (
	FaultLoss int64 = iota + 1
	FaultCorrupt
	FaultDead
	FaultAGC
	FaultInterference
)

// PairCode packs an antenna pair into one int64 Frame argument (decoded by
// PairFromCode); it keeps TRRS events self-describing without a third arg.
func PairCode(i, j int) int64 { return int64(i)<<16 | int64(j)&0xffff }

// PairFromCode decodes PairCode.
func PairFromCode(c int64) (i, j int) { return int(c >> 16), int(c & 0xffff) }

// Event is one recorded event, the ring slot's point-in-time copy.
type Event struct {
	// Seq is the recorder-wide monotonic sequence number.
	Seq uint64 `json:"seq"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Hop is the causal hop ID of the analysis that the event belongs to
	// (-1 for events recorded before any hop claimed them, e.g. ingest).
	Hop int64 `json:"hop"`
	// Frame is the absolute frame/slot ID the event concerns (-1 = n/a).
	// KindTRRSExtend events reuse it for the PairCode.
	Frame int64 `json:"frame"`
	// T is the event time in nanoseconds since the recorder's epoch; for
	// spans it is the start time.
	T int64 `json:"t_ns"`
	// Dur is the span duration in nanoseconds (0 = instant event).
	Dur int64 `json:"dur_ns"`
	// A, B are kind-specific arguments (see the Kind constants).
	A int64 `json:"a"`
	B int64 `json:"b"`
}

// Recorder is the fixed-capacity ring-buffer event recorder. Events are
// stored structure-of-arrays in atomic slots: a writer claims a sequence
// number with one atomic add, stores the fields, and publishes by storing
// seq+1 into the slot's commit cell. Readers (Snapshot) validate the
// commit cell before and after copying a slot, so a slot overwritten
// mid-read is skipped rather than returned torn.
//
// A nil *Recorder is valid everywhere: every method is a no-op (or returns
// a zero value) after one nil check, exactly like obs.Registry.
type Recorder struct {
	mask  int
	epoch time.Time
	wall  time.Time
	next  atomic.Uint64

	commit []atomic.Uint64
	kind   []atomic.Uint32
	hop    []atomic.Int64
	frame  []atomic.Int64
	t      []atomic.Int64
	dur    []atomic.Int64
	a      []atomic.Int64
	b      []atomic.Int64
}

// DefaultCapacity is the event capacity used when NewRecorder is given a
// non-positive one. How much history it holds depends on the event rate
// of everything sharing the recorder: one stream keeps minutes, but a
// fleet of dozens of walkers at 100 Hz (one ingest event a frame, plus
// each hop's spans and row events) wraps it in less than a flight
// recorder's default 10 s lookback, so a fleet postmortem's history is
// bounded by the ring, not by the lookback.
const DefaultCapacity = 1 << 16

// NewRecorder builds a recorder holding the most recent capacity events
// (rounded up to a power of two, minimum 16).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 16
	for n < capacity {
		n <<= 1
	}
	now := time.Now()
	return &Recorder{
		mask:   n - 1,
		epoch:  now,
		wall:   now,
		commit: make([]atomic.Uint64, n),
		kind:   make([]atomic.Uint32, n),
		hop:    make([]atomic.Int64, n),
		frame:  make([]atomic.Int64, n),
		t:      make([]atomic.Int64, n),
		dur:    make([]atomic.Int64, n),
		a:      make([]atomic.Int64, n),
		b:      make([]atomic.Int64, n),
	}
}

// Cap returns the ring capacity (0 on nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.mask + 1
}

// TotalEmitted returns the number of events ever emitted (0 on nil);
// events beyond Cap have been dropped oldest-first.
func (r *Recorder) TotalEmitted() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// WallEpoch returns the wall-clock time of the recorder's T = 0.
func (r *Recorder) WallEpoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.wall
}

// Now returns the current recorder time in nanoseconds since the epoch
// (0 on nil — callers must not emit timestamps from a nil recorder).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Nanoseconds()
}

// Emit records one instant event stamped now. The nil check inlines into
// the caller, so a disabled recorder costs no call.
func (r *Recorder) Emit(k Kind, hop, frame, a, b int64) {
	if r != nil {
		r.emit(k, hop, frame, a, b)
	}
}

func (r *Recorder) emit(k Kind, hop, frame, a, b int64) {
	r.EmitAt(k, hop, frame, a, b, r.Now(), 0)
}

// EmitAt records one event with an explicit start time (nanoseconds since
// the epoch) and duration (0 = instant). It is the primitive behind Emit
// and Stage; callers use it to emit spans whose start predates the call
// (e.g. the ingest→emit lag span).
func (r *Recorder) EmitAt(k Kind, hop, frame, a, b, tns, dur int64) {
	if r == nil {
		return
	}
	seq := r.next.Add(1) - 1
	i := int(seq) & r.mask
	// Invalidate the slot first so a concurrent Snapshot never sees a mix
	// of the old event's fields and the new one's.
	r.commit[i].Store(0)
	r.kind[i].Store(uint32(k))
	r.hop[i].Store(hop)
	r.frame[i].Store(frame)
	r.t[i].Store(tns)
	r.dur[i].Store(dur)
	r.a[i].Store(a)
	r.b[i].Store(b)
	r.commit[i].Store(seq + 1)
}

// Stage times one pipeline stage into the latency histogram named by its
// kind's Metric and into the kind's trace lane: Start reads the clock
// once, End once more, and the one duration feeds both. A nil *Stage is
// valid everywhere and costs one nil check, no clock read.
type Stage struct {
	h     *obs.Histogram
	r     *Recorder
	k     Kind
	epoch time.Time
}

// NewStage resolves stage kind k's histogram from reg and pairs it with
// recorder r; either may be nil. Both nil yield a nil Stage.
func NewStage(reg *obs.Registry, r *Recorder, k Kind) *Stage {
	if reg == nil && r == nil {
		return nil
	}
	s := &Stage{h: reg.Timer(k.Metric(), kinds[k].stageHelp), r: r, k: k, epoch: time.Now()}
	if r != nil {
		s.epoch = r.epoch // share the recorder's timeline
	}
	return s
}

// Timing is one started run of a Stage; End or EndArgs publishes it. The
// zero Timing (from a nil Stage) is a no-op.
type Timing struct {
	s              *Stage
	hop, frame, t0 int64
}

// Start begins timing one run of the stage, stamped with the causal hop
// and frame its trace event carries. The nil check inlines into the
// caller; start stays out of line (noinline) so that it can.
func (s *Stage) Start(hop, frame int64) Timing {
	if s == nil {
		return Timing{}
	}
	return s.start(hop, frame)
}

//go:noinline
func (s *Stage) start(hop, frame int64) Timing {
	return Timing{s: s, hop: hop, frame: frame, t0: s.now()}
}

func (s *Stage) now() int64 { return time.Since(s.epoch).Nanoseconds() }

// End publishes the run with zero trace args. Safe on the zero Timing.
func (t Timing) End() { t.EndArgs(0, 0) }

// EndArgs publishes the run with kind-specific trace args and returns its
// end time, in nanoseconds since the stage's epoch (the recorder's, when
// the stage has one: Recorder.Now's clock). Safe on the zero Timing,
// which returns 0; its nil check inlines into the caller.
func (t Timing) EndArgs(a, b int64) int64 {
	if t.s != nil {
		return t.end(a, b)
	}
	return 0
}

func (t Timing) end(a, b int64) int64 {
	end := t.s.now()
	dur := end - t.t0
	t.s.h.Observe(float64(dur) / 1e9)
	t.s.r.EmitAt(t.s.k, t.hop, t.frame, a, b, t.t0, dur)
	return end
}

// walk calls fn with each committed event below sequence number end whose
// end time (T + Dur) is at or after tns, oldest first. Slots overwritten
// or mid-write are skipped (the ring's drop-oldest semantics applied at
// read time).
func (r *Recorder) walk(tns int64, end uint64, fn func(Event)) {
	start := uint64(0)
	if n := uint64(r.mask + 1); end > n {
		start = end - n
	}
	for seq := start; seq < end; seq++ {
		i := int(seq) & r.mask
		if r.commit[i].Load() != seq+1 {
			continue // overwritten or mid-write
		}
		ev := Event{
			Seq:   seq,
			Kind:  Kind(r.kind[i].Load()),
			Hop:   r.hop[i].Load(),
			Frame: r.frame[i].Load(),
			T:     r.t[i].Load(),
			Dur:   r.dur[i].Load(),
			A:     r.a[i].Load(),
			B:     r.b[i].Load(),
		}
		if r.commit[i].Load() != seq+1 || ev.T+ev.Dur < tns {
			continue // torn (overwritten while copying) or before tns
		}
		fn(ev)
	}
}

// Snapshot returns the committed events currently in the ring, oldest
// first. Nil recorders return nil.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	end := r.next.Load()
	out := make([]Event, 0, min(end, uint64(r.mask+1)))
	r.walk(math.MinInt64, end, func(e Event) { out = append(out, e) })
	return out
}

// Lineage reconstructs the causal chain of one hop from a snapshot: every
// event stamped with the hop ID, plus the pre-hop frame-scoped events
// (acquisition, loss, ingest) whose frame falls inside the hop's analyzed
// slot range (taken from the hop span's [A, B) args, widened by any
// frame-stamped event of the hop). The result is the frame→estimate story
// of that hop, in emission order.
func Lineage(events []Event, hop int64) []Event {
	lo, hi := int64(math.MaxInt64), int64(-1)
	for _, e := range events {
		if e.Hop != hop {
			continue
		}
		if e.Kind == KindHop {
			if e.A < lo {
				lo = e.A
			}
			if e.B > hi {
				hi = e.B
			}
		}
		if f := e.Frame; f >= 0 && e.Kind != KindTRRSFill && e.Kind != KindTRRSExtend {
			if f < lo {
				lo = f
			}
			if f+1 > hi {
				hi = f + 1
			}
		}
	}
	var out []Event
	for _, e := range events {
		switch {
		case e.Hop == hop:
			out = append(out, e)
		case e.Hop < 0 && e.Frame >= lo && e.Frame < hi &&
			(e.Kind == KindFrameAcquired || e.Kind == KindPacketLost || e.Kind == KindIngest):
			out = append(out, e)
		}
	}
	return out
}
