package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rim/internal/obs"
)

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(64)
	if got := r.Cap(); got != 64 {
		t.Fatalf("Cap = %d, want 64", got)
	}
	r.Emit(KindFrameAcquired, -1, 7, 2, 0)
	r.EmitAt(KindHop, 3, -1, 10, 20, 100, 50)
	sp := NewStage(nil, r, KindMovement).Start(3, -1)
	sp.EndArgs(1, 2)

	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(evs))
	}
	e := evs[0]
	if e.Kind != KindFrameAcquired || e.Frame != 7 || e.A != 2 || e.Hop != -1 {
		t.Errorf("event 0 = %+v", e)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 || evs[2].Seq != 2 {
		t.Errorf("sequence IDs not monotonic from 0: %d %d %d", evs[0].Seq, evs[1].Seq, evs[2].Seq)
	}
	if evs[1].T != 100 || evs[1].Dur != 50 || evs[1].A != 10 || evs[1].B != 20 {
		t.Errorf("EmitAt fields = %+v", evs[1])
	}
	if evs[2].Kind != KindMovement || evs[2].Dur < 0 || evs[2].A != 1 || evs[2].B != 2 {
		t.Errorf("span event = %+v", evs[2])
	}
	if r.TotalEmitted() != 3 {
		t.Errorf("TotalEmitted = %d, want 3", r.TotalEmitted())
	}
}

func TestRecorderCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultCapacity}, {-5, DefaultCapacity}, {1, 16}, {16, 16}, {17, 32}, {100, 128},
	} {
		if got := NewRecorder(tc.in).Cap(); got != tc.want {
			t.Errorf("NewRecorder(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRecorderDropOldest(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 40; i++ {
		r.Emit(KindEstimate, int64(i), int64(i), 0, 0)
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("Snapshot len = %d, want 16 (ring capacity)", len(evs))
	}
	if evs[0].Seq != 24 || evs[len(evs)-1].Seq != 39 {
		t.Errorf("kept window [%d, %d], want [24, 39]", evs[0].Seq, evs[len(evs)-1].Seq)
	}
	for i, e := range evs {
		if e.Hop != int64(24+i) {
			t.Fatalf("event %d has hop %d, want %d (torn or misordered)", i, e.Hop, 24+i)
		}
	}
	if r.TotalEmitted() != 40 {
		t.Errorf("TotalEmitted = %d, want 40", r.TotalEmitted())
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Emit(KindFault, 0, 0, FaultLoss, 0)
	r.EmitAt(KindHop, 0, 0, 0, 0, 1, 2)
	s := NewStage(nil, r, KindBuild)
	if s != nil {
		t.Error("a stage with neither registry nor recorder should be nil")
	}
	sp := s.Start(0, 0)
	sp.End()
	sp.EndArgs(1, 2)
	if r.Snapshot() != nil {
		t.Error("nil recorder snapshot should be nil")
	}
	if r.Cap() != 0 || r.Now() != 0 || r.TotalEmitted() != 0 {
		t.Error("nil recorder accessors should return zero")
	}
	if !r.WallEpoch().IsZero() {
		t.Error("nil recorder WallEpoch should be zero")
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatalf("WriteJSON(nil recorder): %v", err)
	}
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil-recorder trace not valid JSON: %v", err)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(256)
	const writers, per = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: must never see torn slots
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Snapshot() {
				// Writers store Hop == Frame == A; a torn read breaks it.
				if e.Hop != e.Frame || e.Hop != e.A {
					t.Errorf("torn event: %+v", e)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := int64(w*per + i)
				r.Emit(KindIngest, v, v, v, 0)
			}
		}(w)
	}
	// Wait for writers (all but the reader goroutine).
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Let writers finish, then stop the reader.
	for r.TotalEmitted() < writers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if got := r.TotalEmitted(); got != writers*per {
		t.Fatalf("TotalEmitted = %d, want %d", got, writers*per)
	}
	evs := r.Snapshot()
	if len(evs) == 0 || len(evs) > 256 {
		t.Fatalf("Snapshot len = %d, want (0, 256]", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot not seq-ordered at %d", i)
		}
	}
}

func TestKindTextRoundTrip(t *testing.T) {
	for k := KindNone; k < numKinds; k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%d): %v", k, err)
		}
		var back Kind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", b, err)
		}
		if back != k {
			t.Errorf("round trip %d -> %q -> %d", k, b, back)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("nope")); err == nil {
		t.Error("UnmarshalText should reject unknown names")
	}
}

func TestPairCode(t *testing.T) {
	for _, tc := range [][2]int{{0, 1}, {2, 2}, {31, 0}, {100, 200}} {
		i, j := PairFromCode(PairCode(tc[0], tc[1]))
		if i != tc[0] || j != tc[1] {
			t.Errorf("PairCode(%d,%d) round trip = (%d,%d)", tc[0], tc[1], i, j)
		}
	}
}

func TestLineage(t *testing.T) {
	r := NewRecorder(128)
	// Pre-hop frame events: acquisition for slots 0..5, loss on slot 3,
	// ingest for all.
	for s := int64(0); s < 6; s++ {
		r.Emit(KindFrameAcquired, -1, s, 0, 0)
		r.Emit(KindIngest, -1, s, 0, 0)
	}
	r.Emit(KindPacketLost, -1, 3, 1, 0)
	// Hop 1 analyzed slots [0, 4); hop 2 analyzed [2, 6).
	r.EmitAt(KindHop, 1, -1, 0, 4, r.Now(), 10)
	r.Emit(KindEstimate, 1, 3, 1, 0)
	r.Emit(KindFusionStep, 1, -1, 900, 100)
	r.EmitAt(KindHop, 2, -1, 2, 6, r.Now(), 10)
	r.Emit(KindEstimate, 2, 5, 0, 0)
	// TRRS events carry pair codes in Frame; they must not widen the
	// frame window.
	r.Emit(KindTRRSExtend, 2, PairCode(90, 91), 40, 2)

	evs := r.Snapshot()
	lin := Lineage(evs, 1)
	var gotKinds []Kind
	frames := map[int64]bool{}
	for _, e := range lin {
		gotKinds = append(gotKinds, e.Kind)
		if e.Hop != 1 && e.Hop != -1 {
			t.Errorf("lineage of hop 1 contains hop %d event %+v", e.Hop, e)
		}
		if e.Hop == -1 {
			frames[e.Frame] = true
			if e.Frame < 0 || e.Frame >= 4 {
				t.Errorf("lineage includes out-of-window frame event %+v", e)
			}
		}
	}
	for s := int64(0); s < 4; s++ {
		if !frames[s] {
			t.Errorf("lineage of hop 1 missing frame %d events", s)
		}
	}
	// The degraded estimate and the fusion step must be present.
	var haveEst, haveFus, haveLost bool
	for _, e := range lin {
		switch e.Kind {
		case KindEstimate:
			haveEst = e.A == 1 && e.Frame == 3
		case KindFusionStep:
			haveFus = true
		case KindPacketLost:
			haveLost = e.Frame == 3
		}
	}
	if !haveEst || !haveFus || !haveLost {
		t.Errorf("lineage missing estimate/fusion/loss: est=%v fus=%v lost=%v kinds=%v",
			haveEst, haveFus, haveLost, gotKinds)
	}

	// Hop 2's lineage must include frames [2, 6) but not hop 1's events,
	// and the TRRS pair code must not have widened the window.
	lin2 := Lineage(evs, 2)
	for _, e := range lin2 {
		if e.Hop == 1 {
			t.Errorf("hop 2 lineage contains hop 1 event %+v", e)
		}
		if e.Hop == -1 && (e.Frame < 2 || e.Frame >= 6) {
			t.Errorf("hop 2 lineage frame window wrong: %+v", e)
		}
	}
}

func TestWriteJSONShape(t *testing.T) {
	r := NewRecorder(64)
	r.Emit(KindFrameAcquired, -1, 0, 1, 0)
	r.EmitAt(KindHop, 1, -1, 0, 4, 1000, 500)
	r.Emit(KindFault, -1, 2, FaultDead, 1)
	r.Emit(KindTRRSExtend, 1, PairCode(0, 1), 10, 2)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	var phX, phI, phM int
	var sawHop bool
	for _, te := range tf.TraceEvents {
		switch te.Ph {
		case "X":
			phX++
		case "i":
			phI++
		case "M":
			phM++
		default:
			t.Errorf("unexpected ph %q", te.Ph)
		}
		if te.Ph != "M" && te.Pid != 1 {
			t.Errorf("event %q has pid %d", te.Name, te.Pid)
		}
		if te.Name == "hop" {
			sawHop = true
			if te.Ph != "X" || te.Ts != 1.0 || te.Dur != 0.5 {
				t.Errorf("hop span wrong: ph=%q ts=%v dur=%v", te.Ph, te.Ts, te.Dur)
			}
			if te.Args["slot_lo"].(float64) != 0 || te.Args["slot_hi"].(float64) != 4 {
				t.Errorf("hop args = %v", te.Args)
			}
		}
		if te.Name == "fault" && te.Args["fault"] != "chain_dead" {
			t.Errorf("fault args = %v", te.Args)
		}
		if te.Name == "trrs_extend" && te.Args["pair"] != "0-1" {
			t.Errorf("trrs_extend args = %v", te.Args)
		}
	}
	if phX != 1 || phI != 3 {
		t.Errorf("ph counts: X=%d i=%d, want 1/3", phX, phI)
	}
	if phM < 2 {
		t.Errorf("expected process+thread metadata events, got %d", phM)
	}
	if !sawHop {
		t.Error("hop span missing from trace")
	}
}

func TestTraceHandler(t *testing.T) {
	r := NewRecorder(16)
	r.Emit(KindEstimate, 1, 0, 0, 0)
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rimtrace", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var tf map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &tf); err != nil {
		t.Fatalf("handler body not JSON: %v", err)
	}
	if _, ok := tf["traceEvents"]; !ok {
		t.Error("handler body missing traceEvents")
	}
}

func TestFlightCaptureAndHandler(t *testing.T) {
	r := NewRecorder(128)
	reg := obs.NewRegistry()
	reg.Counter("rim_test_total", "t").Add(3)
	dir := t.TempDir()
	f := NewFlight(FlightConfig{
		Recorder:    r,
		Lookback:    time.Minute,
		MinInterval: -1,
		Registry:    reg,
		Health:      func() any { return map[string]int{"alive": 2} },
		Dir:         dir,
	})
	if f == nil {
		t.Fatal("NewFlight returned nil with a live recorder")
	}

	r.Emit(KindIngest, -1, 0, 1, 0)
	r.EmitAt(KindHop, 1, -1, 0, 1, r.Now(), 10)
	r.Emit(KindEstimate, 1, 0, 1, 0)

	if !f.Offer(ReasonDegradedEstimates, 1, nil) {
		t.Fatal("Offer rejected")
	}
	pm := f.Last()
	if pm == nil {
		t.Fatal("Last returned nil after capture")
	}
	if pm.Reason != ReasonDegradedEstimates || pm.Hop != 1 || pm.Seq != 1 {
		t.Errorf("bundle header = %+v", pm)
	}
	if pm.Detail == nil {
		t.Error("bundle missing health detail")
	}
	if len(pm.Metrics) == 0 {
		t.Error("bundle missing metrics snapshot")
	}
	// The bundle's events must reconstruct hop 1's lineage, including the
	// trigger itself.
	lin := Lineage(pm.Events, 1)
	var haveIngest, haveEst, haveTrig bool
	for _, e := range lin {
		switch e.Kind {
		case KindIngest:
			haveIngest = true
		case KindEstimate:
			haveEst = true
		case KindTrigger:
			haveTrig = true
		}
	}
	if !haveIngest || !haveEst || !haveTrig {
		t.Errorf("lineage incomplete: ingest=%v est=%v trigger=%v", haveIngest, haveEst, haveTrig)
	}

	// Disk bundle round trip.
	path := filepath.Join(dir, "postmortem-1-degraded_estimates.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("bundle file: %v", err)
	}
	var back Postmortem
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("bundle file not valid JSON: %v", err)
	}
	if back.Reason != pm.Reason || len(back.Events) != len(pm.Events) {
		t.Errorf("disk bundle mismatch: %+v", back)
	}

	// HTTP handler serves the same bundle.
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/postmortem", nil))
	if rec.Code != 200 {
		t.Fatalf("handler status = %d", rec.Code)
	}
	var served Postmortem
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatalf("served bundle not JSON: %v", err)
	}
	if served.Seq != 1 || served.Reason != ReasonDegradedEstimates {
		t.Errorf("served bundle = %+v", served)
	}
}

// TestFlightBundlesAppearWhole reads every postmortem-*.json bundle while
// captures keep landing in the directory: each read must parse, because a
// bundle becomes visible under its name only once it is complete.
func TestFlightBundlesAppearWhole(t *testing.T) {
	r := NewRecorder(1024)
	for i := 0; i < r.Cap(); i++ {
		r.Emit(KindEstimate, int64(i), int64(i), int64(i), 0)
	}
	dir := t.TempDir()
	f := NewFlight(FlightConfig{Recorder: r, Lookback: time.Hour, MinInterval: -1, Dir: dir,
		Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	const captures = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < captures; i++ {
			f.Offer(ReasonDegradedEstimates, int64(i), nil)
		}
	}()
	// Each bundle is read until it has parsed once; it never changes after.
	whole := map[string]bool{}
	readNew := func() {
		paths, err := filepath.Glob(filepath.Join(dir, "postmortem-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if whole[p] {
				continue
			}
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatalf("reading %s: %v", p, err)
			}
			var pm Postmortem
			if err := json.Unmarshal(data, &pm); err != nil {
				t.Fatalf("%s read mid-write (%d bytes): %v", filepath.Base(p), len(data), err)
			}
			whole[p] = true
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		readNew()
	}
	if len(whole) != captures {
		t.Fatalf("%d bundles on disk, want %d", len(whole), captures)
	}
}

func TestFlightRateLimitAndPredicate(t *testing.T) {
	r := NewRecorder(64)
	f := NewFlight(FlightConfig{
		Recorder:    r,
		MinInterval: time.Hour,
		Trigger:     func(reason string) bool { return reason != ReasonDeadAntenna },
	})
	if f.Offer(ReasonDeadAntenna, -1, nil) {
		t.Error("vetoed reason captured")
	}
	if !f.Offer(ReasonAnalysisFailure, -1, nil) {
		t.Error("first accepted offer rejected")
	}
	if f.Offer(ReasonAnalysisFailure, -1, nil) {
		t.Error("rate limit not applied")
	}
	if f.Captures() != 1 {
		t.Errorf("Captures = %d, want 1", f.Captures())
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *Flight
	if f.Offer(ReasonAnalysisFailure, 0, nil) {
		t.Error("nil Flight accepted an offer")
	}
	if f.Last() != nil || f.Captures() != 0 {
		t.Error("nil Flight accessors should return zero")
	}
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/postmortem", nil))
	if rec.Code != 404 {
		t.Errorf("nil Flight handler status = %d, want 404", rec.Code)
	}
	if NewFlight(FlightConfig{}) != nil {
		t.Error("NewFlight without recorder should return nil")
	}
}

func TestFlightEmptyLookbackWindow(t *testing.T) {
	r := NewRecorder(64)
	f := NewFlight(FlightConfig{Recorder: r, Lookback: time.Nanosecond, MinInterval: -1})
	if !f.Offer(ReasonAnalysisFailure, -1, nil) {
		t.Fatal("offer rejected")
	}
	pm := f.Last()
	// Even with an (effectively) empty lookback, the trigger event itself
	// is in-window.
	if len(pm.Events) == 0 || pm.Events[len(pm.Events)-1].Kind != KindTrigger {
		t.Errorf("bundle should end with its own trigger: %+v", pm.Events)
	}
}

func TestSinceFilters(t *testing.T) {
	r := NewRecorder(64)
	r.EmitAt(KindEstimate, 0, 0, 0, 0, 100, 0)
	r.EmitAt(KindEstimate, 1, 1, 0, 0, 200, 0)
	r.EmitAt(KindHop, 2, -1, 0, 0, 150, 100) // ends at 250
	b, n := r.pack(220)
	if evs := unpackEvents(b); n != 1 || len(evs) != 1 || evs[0].Kind != KindHop {
		t.Fatalf("pack(220) = %d events %+v, want just the hop span (ends 250)", n, evs)
	}
	if b, n := r.pack(math.MaxInt64); n != 0 || len(b) != 0 {
		t.Errorf("pack(max) = %d events in %d bytes, want none", n, len(b))
	}
}

// TestStageRecords times one stage run into a live registry and recorder:
// the histogram named by the kind's metric and the trace lane receive the
// same duration.
func TestStageRecords(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRecorder(16)
	sp := NewStage(reg, r, KindAlign).Start(4, 17)
	time.Sleep(time.Millisecond)
	sp.EndArgs(1, 2)
	h := reg.Timer("rim_align_seconds", "")
	if h.Count() != 1 {
		t.Fatalf("stage count = %d, want 1", h.Count())
	}
	if h.Sum() < 0.0005 {
		t.Errorf("stage sum = %v, want >= ~1ms", h.Sum())
	}
	evs := r.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1", len(evs))
	}
	if e := evs[0]; e.Kind != KindAlign || e.Hop != 4 || e.Frame != 17 || e.A != 1 || e.B != 2 ||
		float64(e.Dur)/1e9 != h.Sum() {
		t.Errorf("span %+v disagrees with the histogram sum %v", e, h.Sum())
	}
}

// TestStageTable pins the stage list: each stage's metric is
// rim_<kind>_seconds, and no other kind names a metric.
func TestStageTable(t *testing.T) {
	want := map[Kind]string{
		KindIngest:   "rim_ingest_seconds",
		KindHop:      "rim_hop_seconds",
		KindBuild:    "rim_trrs_build_seconds",
		KindMovement: "rim_movement_seconds",
		KindAlign:    "rim_align_seconds",
		KindDerived:  "rim_trrs_derived_seconds",
	}
	stages := Stages()
	if len(stages) != len(want) {
		t.Fatalf("Stages() = %v, want the %d of %v", stages, len(want), want)
	}
	for k := KindNone; k < numKinds; k++ {
		if got := k.Metric(); got != want[k] {
			t.Errorf("%v.Metric() = %q, want %q", k, got, want[k])
		}
	}
}
