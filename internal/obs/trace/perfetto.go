package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// Perfetto/Chrome trace-event export. The recorder's events map onto the
// trace-event JSON format (the "JSON Array / Object" format accepted by
// chrome://tracing and ui.perfetto.dev): spans become ph=X complete
// events, instants become ph=i, and each pipeline stage gets its own tid
// lane inside one pid so the hop→stage nesting and the frame flow across
// lanes read at a glance.

// Lane tids. Perfetto sorts threads by tid, so the order below is the
// top-to-bottom display order: acquisition feeds ingest feeds analysis
// feeds emission.
const (
	laneAcquire = 1 + iota
	laneIngest
	laneAnalysis
	laneEmit
	laneLag
	laneTRRS
	laneFusion
	laneFlight
)

var laneNames = map[int]string{
	laneAcquire:  "acquire (csi)",
	laneIngest:   "ingest (streamer)",
	laneAnalysis: "analysis (hop)",
	laneEmit:     "emit (estimates)",
	laneLag:      "watermark lag",
	laneTRRS:     "trrs rows",
	laneFusion:   "fusion",
	laneFlight:   "flight recorder",
}

func lane(k Kind) int {
	switch k {
	case KindFrameAcquired, KindPacketLost, KindFault:
		return laneAcquire
	case KindIngest:
		return laneIngest
	case KindEstimate:
		return laneEmit
	case KindLag:
		return laneLag
	case KindTRRSFill, KindTRRSExtend:
		return laneTRRS
	case KindFusionStep:
		return laneFusion
	case KindTrigger:
		return laneFlight
	default: // the hop, its stages and their decisions
		return laneAnalysis
	}
}

// traceEvent is one entry of the trace-event JSON format.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level trace-event JSON object.
type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

func faultName(code int64) string {
	switch code {
	case FaultLoss:
		return "packet_loss"
	case FaultCorrupt:
		return "corrupt_frame"
	case FaultDead:
		return "chain_dead"
	case FaultAGC:
		return "agc_gain"
	case FaultInterference:
		return "interference"
	default:
		return fmt.Sprintf("fault(%d)", code)
	}
}

// eventArgs renders an event's A/B payload under kind-specific names so
// the trace viewer's args pane is self-describing.
func eventArgs(e Event) map[string]any {
	args := map[string]any{"seq": e.Seq}
	if e.Hop >= 0 {
		args["hop"] = e.Hop
	}
	switch e.Kind {
	case KindFrameAcquired:
		args["frame"], args["nic"] = e.Frame, e.A
	case KindPacketLost:
		args["frame"], args["nic"], args["bursty"] = e.Frame, e.A, e.B != 0
	case KindFault:
		args["fault"], args["index"] = faultName(e.A), e.B
		if e.Frame >= 0 {
			args["frame"] = e.Frame
		}
	case KindIngest:
		args["frame"], args["missing"], args["corrupt"] = e.Frame, e.A, e.B != 0
	case KindHop:
		args["slot_lo"], args["slot_hi"] = e.A, e.B
	case KindAlign:
		args["segment_start"] = e.Frame
	case KindSegment:
		args["start"], args["end"], args["motion"] = e.Frame, e.A, e.B
	case KindZUPT:
		args["start"], args["end"], args["confidence_permille"] = e.Frame, e.A, e.B
	case KindTRRSFill:
		args["rows"] = e.A
	case KindTRRSExtend:
		i, j := PairFromCode(e.Frame)
		args["pair"] = fmt.Sprintf("%d-%d", i, j)
		args["reused"], args["stale"] = e.A, e.B
	case KindFusionStep:
		args["quality_permille"], args["alive"] = e.A, e.B
	case KindEstimate:
		args["frame"], args["degraded"], args["motion"] = e.Frame, e.A != 0, e.B
	case KindLag:
		args["frame"] = e.Frame
	case KindTrigger:
		if int(e.A) < len(Reasons) {
			args["reason"] = Reasons[e.A]
		} else {
			args["reason"] = e.A
		}
	default:
		if e.Frame >= 0 {
			args["frame"] = e.Frame
		}
		if e.A != 0 {
			args["a"] = e.A
		}
		if e.B != 0 {
			args["b"] = e.B
		}
	}
	return args
}

// WriteEvents writes the given events as trace-event JSON. wall is the
// wall-clock time of T = 0 (recorded as otherData); events are sorted by
// start time, which both viewers require within a (pid, tid) lane.
func WriteEvents(w io.Writer, events []Event, wall time.Time) error {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].T < sorted[b].T })

	tf := traceFile{
		TraceEvents:     make([]traceEvent, 0, len(sorted)+len(laneNames)+1),
		DisplayTimeUnit: "ms",
	}
	if !wall.IsZero() {
		tf.OtherData = map[string]any{"wall_epoch": wall.Format(time.RFC3339Nano)}
	}
	tf.TraceEvents = append(tf.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "rim"},
	})
	for tid, name := range laneNames {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	for _, e := range sorted {
		te := traceEvent{
			Name: e.Kind.String(),
			Cat:  "rim",
			Ts:   float64(e.T) / 1e3,
			Pid:  1,
			Tid:  lane(e.Kind),
			Args: eventArgs(e),
		}
		if e.Dur > 0 {
			te.Ph = "X"
			te.Dur = float64(e.Dur) / 1e3
		} else {
			te.Ph = "i"
			te.S = "t"
		}
		tf.TraceEvents = append(tf.TraceEvents, te)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// WriteJSON writes the recorder's current contents as Chrome/Perfetto
// trace-event JSON — the format behind the -trace-out flag and the
// /debug/rimtrace endpoint. A nil recorder writes an empty (but valid)
// trace.
func WriteJSON(w io.Writer, r *Recorder) error {
	return WriteEvents(w, r.Snapshot(), r.WallEpoch())
}

// Handler serves the recorder as trace-event JSON (mounted at
// /debug/rimtrace on the debug mux). Safe on a nil recorder.
func Handler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="rimtrace.json"`)
		if err := WriteJSON(w, r); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
