package trace

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rim/internal/obs"
)

// Trigger reasons. The ordinal (index into Reasons) travels as the A arg
// of the KindTrigger event the flight recorder emits on capture.
const (
	// ReasonAnalysisFailure: a streaming hop's analysis returned
	// ErrAnalysis and the streamer served stale results.
	ReasonAnalysisFailure = "analysis_failure"
	// ReasonDeadAntenna: dead-antenna detection crossed its hysteresis
	// threshold and declared a chain dead.
	ReasonDeadAntenna = "dead_antenna"
	// ReasonDegradedEstimates: an analysis window emitted degraded
	// (substituted/unreliable) estimates.
	ReasonDegradedEstimates = "degraded_estimates"
	// ReasonHopDeadline: a streaming hop exceeded its analysis deadline
	// and emitted degraded placeholders for the unresolved slots.
	ReasonHopDeadline = "hop_deadline"
	// ReasonSLOBreach: an SLO objective entered its paging state (fast
	// burn on both burn windows); the bundle is the postmortem seed.
	ReasonSLOBreach = "slo_breach"
	// ReasonSessionQuarantined: a session supervisor gave up restarting a
	// flapping session and quarantined it.
	ReasonSessionQuarantined = "session_quarantined"
	// ReasonQualityBreach: an estimator-quality monitor (NIS/NEES band
	// state machine, see internal/obs/quality) entered its alert state —
	// the filter is statistically inconsistent with its own covariance.
	ReasonQualityBreach = "quality_breach"
)

// Reasons lists the trigger reasons in ordinal order.
var Reasons = []string{
	ReasonAnalysisFailure, ReasonDeadAntenna, ReasonDegradedEstimates,
	ReasonHopDeadline, ReasonSessionQuarantined,
	// Appended, never inserted: ordinals are wire-stable in old bundles.
	ReasonSLOBreach,
	ReasonQualityBreach,
}

func reasonOrdinal(reason string) int64 {
	for i, r := range Reasons {
		if r == reason {
			return int64(i)
		}
	}
	return int64(len(Reasons)) // unknown: out-of-range ordinal, kept verbatim in the bundle
}

// Postmortem is one flight-recorder capture: the black-box bundle an
// engineer opens after a degraded run. Events hold the lookback window of
// the trace ring (oldest first); Lineage over them with the degraded hop
// ID reconstructs the frame→estimate story.
type Postmortem struct {
	// Reason is the trigger reason (one of the Reason* constants).
	Reason string `json:"reason"`
	// Seq numbers this capture within the process (1-based).
	Seq int `json:"seq"`
	// WallTime is the capture's wall-clock time.
	WallTime time.Time `json:"wall_time"`
	// WallEpoch anchors the events' t_ns to wall-clock time.
	WallEpoch time.Time `json:"wall_epoch"`
	// Hop is the causal hop ID the trigger concerns (-1 when the trigger
	// is not hop-scoped, e.g. a dead antenna between hops).
	Hop int64 `json:"hop"`
	// Detail is the trigger's free-form context — typically the
	// core.Health snapshot at capture time.
	Detail any `json:"detail,omitempty"`
	// Metrics is the obs registry snapshot at capture time.
	Metrics []obs.Metric `json:"metrics,omitempty"`
	// Events is the lookback window of trace events, oldest first.
	Events []Event `json:"events"`
}

// FlightConfig configures a Flight recorder.
type FlightConfig struct {
	// Recorder is the event ring to snapshot from (required; a nil
	// recorder yields a nil Flight from NewFlight).
	Recorder *Recorder
	// Lookback is how far back the bundle's event window reaches
	// (default 10s).
	Lookback time.Duration
	// MinInterval rate-limits captures: offers within MinInterval of the
	// previous capture are dropped (default 5s; the first offer always
	// fires). Use a negative value to disable rate limiting.
	MinInterval time.Duration
	// Trigger, when non-nil, filters offers: return false to veto a
	// capture for the given reason. The default accepts every reason.
	Trigger func(reason string) bool
	// Registry, when non-nil, is snapshotted into each bundle's Metrics.
	Registry *obs.Registry
	// Health, when non-nil, supplies each bundle's Detail when the offer
	// itself carries none.
	Health func() any
	// Dir, when non-empty, writes each bundle to
	// <Dir>/postmortem-<seq>-<reason>.json as it is captured.
	Dir string
	// Log receives capture and write-failure notices (nil = slog.Default).
	Log *slog.Logger
}

// Flight is the flight recorder: it watches for degradation triggers and
// snapshots the trace ring's recent past into Postmortem bundles. A nil
// *Flight is valid everywhere and ignores every offer, so un-wired
// pipelines pay one nil check per trigger site.
type Flight struct {
	cfg FlightConfig

	mu       sync.Mutex
	lastT    int64 // recorder time of the last accepted capture
	captured int
	// last is the latest capture without its events, which lastEvents
	// holds packed (see Recorder.pack) until Last unpacks them.
	last       *Postmortem
	lastEvents []byte
}

// NewFlight builds a flight recorder over cfg.Recorder. Returns nil (a
// valid no-op Flight) when the recorder is nil — wiring stays
// unconditional at call sites.
func NewFlight(cfg FlightConfig) *Flight {
	if cfg.Recorder == nil {
		return nil
	}
	if cfg.Lookback <= 0 {
		cfg.Lookback = 10 * time.Second
	}
	if cfg.MinInterval == 0 {
		cfg.MinInterval = 5 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	return &Flight{cfg: cfg, lastT: -1 << 62}
}

// Offer proposes a capture for the given trigger reason and causal hop
// (-1 when not hop-scoped). detail overrides the configured Health
// supplier for this bundle (pass nil to use it). Returns true when a
// bundle was captured; false when vetoed by the trigger predicate,
// rate-limited, or offered to a nil Flight.
//
// Offer must not be called while holding a lock that the configured
// Health func also takes. The nil check inlines into the caller.
func (f *Flight) Offer(reason string, hop int64, detail any) bool {
	return f != nil && f.offer(reason, hop, detail)
}

func (f *Flight) offer(reason string, hop int64, detail any) bool {
	if f.cfg.Trigger != nil && !f.cfg.Trigger(reason) {
		return false
	}
	now := f.cfg.Recorder.Now()

	f.mu.Lock()
	if f.cfg.MinInterval > 0 && now-f.lastT < f.cfg.MinInterval.Nanoseconds() {
		f.mu.Unlock()
		return false
	}
	f.lastT = now
	f.captured++
	seq := f.captured
	f.mu.Unlock()

	// Emit the trigger before snapshotting so the bundle records its own
	// cause as its newest event.
	f.cfg.Recorder.Emit(KindTrigger, hop, -1, reasonOrdinal(reason), int64(seq))

	if detail == nil && f.cfg.Health != nil {
		detail = f.cfg.Health()
	}
	pm := &Postmortem{
		Reason:    reason,
		Seq:       seq,
		WallTime:  time.Now(),
		WallEpoch: f.cfg.Recorder.WallEpoch(),
		Hop:       hop,
		Detail:    detail,
		Metrics:   f.cfg.Registry.Snapshot(),
	}
	// The events go from the ring straight into their packed form; they
	// are unpacked only for a bundle written to Dir.
	packed, n := f.cfg.Recorder.pack(now - f.cfg.Lookback.Nanoseconds())
	f.mu.Lock()
	f.last, f.lastEvents = pm, packed
	f.mu.Unlock()

	f.cfg.Log.Warn("flight recorder captured postmortem",
		"reason", reason, "seq", seq, "hop", hop, "events", n)
	if f.cfg.Dir != "" {
		full := *pm
		full.Events = unpackEvents(packed)
		f.write(&full)
	}
	return true
}

func (f *Flight) write(pm *Postmortem) {
	path := filepath.Join(f.cfg.Dir, fmt.Sprintf("postmortem-%d-%s.json", pm.Seq, pm.Reason))
	data, err := json.MarshalIndent(pm, "", "  ")
	if err == nil {
		err = writeFileAtomic(path, data)
	}
	if err != nil {
		f.cfg.Log.Error("flight recorder: writing postmortem bundle", "path", path, "err", err)
		return
	}
	f.cfg.Log.Warn("flight recorder wrote postmortem bundle", "path", path)
}

// writeFileAtomic writes data to a temporary file in path's directory and
// renames it to path, so a reader of path sees the whole bundle or no
// file, never a prefix. It does not Sync: a bundle already survives a
// process crash in the page cache, and an fsync would stall the hop that
// offered the capture.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".postmortem-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Last returns the most recent capture (nil when none yet, or on a nil
// Flight), its events unpacked afresh on every call.
func (f *Flight) Last() *Postmortem {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	last, packed := f.last, f.lastEvents
	f.mu.Unlock()
	if last == nil {
		return nil
	}
	pm := *last
	pm.Events = unpackEvents(packed)
	return &pm
}

// pack encodes the events walk(tns) yields losslessly and compactly, the
// form a retained capture holds them in, and counts them: per event its
// kind byte and varints of its fields, Seq, Hop, Frame and T as
// differences from the previous event's, which are small. A first walk
// sizes the encoding, so the capture allocates, and keeps, exactly its
// bytes; a slot overwritten between the walks only makes append grow.
func (r *Recorder) pack(tns int64) ([]byte, int) {
	var scratch [8 * binary.MaxVarintLen64]byte
	end := r.next.Load()
	size, n := 0, 0
	var prev Event
	r.walk(tns, end, func(e Event) {
		size += len(appendEvent(scratch[:0], e, prev))
		prev = e
	})
	b := make([]byte, 0, size)
	prev = Event{}
	r.walk(tns, end, func(e Event) {
		b = appendEvent(b, e, prev)
		prev = e
		n++
	})
	return b, n
}

// appendEvent appends e's encoding, relative to the event before it, to b.
func appendEvent(b []byte, e, prev Event) []byte {
	b = binary.AppendUvarint(b, e.Seq-prev.Seq)
	b = append(b, byte(e.Kind))
	b = binary.AppendVarint(b, e.Hop-prev.Hop)
	b = binary.AppendVarint(b, e.Frame-prev.Frame)
	b = binary.AppendVarint(b, e.T-prev.T)
	b = binary.AppendVarint(b, e.Dur)
	b = binary.AppendVarint(b, e.A)
	return binary.AppendVarint(b, e.B)
}

// unpackEvents decodes what pack encoded (a non-nil slice, empty or not,
// as a snapshot is); an event takes at least 8 bytes.
func unpackEvents(b []byte) []Event {
	evs := make([]Event, 0, len(b)/8)
	uv := func() uint64 {
		v, k := binary.Uvarint(b)
		b = b[k:]
		return v
	}
	sv := func() int64 {
		v, k := binary.Varint(b)
		b = b[k:]
		return v
	}
	var e Event
	for len(b) > 0 {
		e.Seq += uv()
		e.Kind, b = Kind(b[0]), b[1:]
		e.Hop += sv()
		e.Frame += sv()
		e.T += sv()
		e.Dur, e.A, e.B = sv(), sv(), sv()
		evs = append(evs, e)
	}
	return evs
}

// Captures returns the number of bundles captured so far (0 on nil).
func (f *Flight) Captures() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.captured
}

// Handler serves the latest postmortem bundle as JSON (mounted at
// /debug/postmortem; 404 until the first capture). Safe on a nil Flight.
func (f *Flight) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		pm := f.Last()
		if pm == nil {
			http.Error(w, "no postmortem captured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(pm); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
