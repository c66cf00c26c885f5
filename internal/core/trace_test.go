package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"rim/internal/array"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/obs/trace"
	"rim/internal/traj"
)

// TestStreamTraceLineage drives a degraded stream (two antennas never
// deliver, so analysis fails every hop) with a recorder and flight
// recorder wired in, then verifies the causal trace end to end: ingest
// events carry absolute frame IDs, each hop span records its slot window,
// estimate events are tagged with their hop, trace.Lineage reconstructs a
// hop's frame→estimate chain, the flight recorder captured a bundle whose
// events contain that lineage, and the lag instrumentation fired.
func TestStreamTraceLineage(t *testing.T) {
	arr := array.NewLinear3(spacing)
	cfg := streamConfig(arr)
	cfg.SpanSeconds = 1
	cfg.HopSeconds = 0.1
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(1 << 12)
	cfg.Core.Obs = reg
	cfg.Core.Trace = rec
	var st *Streamer
	flight := trace.NewFlight(trace.FlightConfig{
		Recorder:    rec,
		Registry:    reg,
		MinInterval: -1, // capture every offer
	})
	cfg.Core.Flight = flight
	st, err := NewStreamer(cfg, 100, 3, 3, 30)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	mk := func() [][][]complex128 {
		snap := make([][][]complex128, 3)
		for a := range snap {
			snap[a] = make([][]complex128, 3)
			for tx := range snap[a] {
				row := make([]complex128, 30)
				for k := range row {
					row[k] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				snap[a][tx] = row
			}
		}
		return snap
	}
	mask := []bool{false, true, true}
	const pushes = 200
	for i := 0; i < pushes; i++ {
		if _, err := st.PushMasked(mk(), mask); err != nil && !errors.Is(err, ErrAnalysis) {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	st.Flush()

	events := rec.Snapshot()
	var ingests, hops, estimates, lags int
	var maxHop int64
	hopWin := map[int64][2]int64{}
	for _, e := range events {
		switch e.Kind {
		case trace.KindIngest:
			ingests++
			if e.Hop != -1 {
				t.Fatalf("ingest event tagged with hop %d, want -1 (pre-hop)", e.Hop)
			}
			if e.Frame < 0 || e.Frame >= pushes {
				t.Fatalf("ingest frame %d outside [0,%d)", e.Frame, pushes)
			}
		case trace.KindHop:
			hops++
			if e.Hop < 1 {
				t.Fatalf("stream hop span has hop %d, want >= 1", e.Hop)
			}
			if e.B <= e.A || e.A < 0 {
				t.Fatalf("hop %d window [%d,%d) malformed", e.Hop, e.A, e.B)
			}
			hopWin[e.Hop] = [2]int64{e.A, e.B}
			if e.Hop > maxHop {
				maxHop = e.Hop
			}
		case trace.KindEstimate:
			estimates++
			if e.Hop < 1 {
				t.Fatalf("estimate event has hop %d, want >= 1", e.Hop)
			}
			if e.A != 1 {
				t.Errorf("estimate at frame %d not degraded (analysis fails every hop)", e.Frame)
			}
		case trace.KindLag:
			lags++
			if e.Dur < 0 {
				t.Errorf("lag span with negative duration %d", e.Dur)
			}
		}
	}
	if ingests != pushes {
		t.Errorf("ingest events = %d, want %d", ingests, pushes)
	}
	if hops == 0 || estimates == 0 || lags == 0 {
		t.Fatalf("missing event kinds: %d hops, %d estimates, %d lags", hops, estimates, lags)
	}

	// Lineage of the last hop: its frame events must fall inside the hop's
	// recorded slot window, and the hop's own span and estimates must be
	// included.
	lin := trace.Lineage(events, maxHop)
	if len(lin) == 0 {
		t.Fatalf("empty lineage for hop %d", maxHop)
	}
	win := hopWin[maxHop]
	var linHopSpan, linEst, linFrames bool
	for _, e := range lin {
		switch e.Kind {
		case trace.KindHop:
			linHopSpan = true
		case trace.KindEstimate:
			linEst = true
		case trace.KindIngest:
			linFrames = true
			if e.Frame < win[0] || e.Frame >= win[1] {
				t.Errorf("lineage frame %d outside hop %d window [%d,%d)",
					e.Frame, maxHop, win[0], win[1])
			}
		case trace.KindTrigger:
			// flight triggers tagged with this hop ride along; fine.
		}
		if e.Hop >= 0 && e.Hop != maxHop {
			t.Errorf("lineage contains foreign hop %d event (kind %v)", e.Hop, e.Kind)
		}
	}
	if !linHopSpan || !linEst || !linFrames {
		t.Fatalf("lineage incomplete: hop span %v, estimates %v, frames %v",
			linHopSpan, linEst, linFrames)
	}

	// The failing analyses and degraded estimates must have produced
	// postmortem bundles whose events cover the same lineage.
	if flight.Captures() == 0 {
		t.Fatal("flight recorder captured nothing despite failing hops")
	}
	pm := flight.Last()
	if pm == nil {
		t.Fatal("no last postmortem")
	}
	if pm.Reason != trace.ReasonAnalysisFailure && pm.Reason != trace.ReasonDegradedEstimates {
		t.Errorf("postmortem reason = %q", pm.Reason)
	}
	if len(pm.Events) == 0 || len(pm.Metrics) == 0 {
		t.Fatalf("postmortem bundle empty: %d events, %d metrics", len(pm.Events), len(pm.Metrics))
	}
	if bl := trace.Lineage(pm.Events, pm.Hop); pm.Hop >= 1 && len(bl) == 0 {
		t.Errorf("postmortem bundle cannot reconstruct lineage of its own hop %d", pm.Hop)
	}
	if h, ok := pm.Detail.(Health); !ok {
		t.Errorf("postmortem detail is %T, want core.Health", pm.Detail)
	} else if h.TotalFailures == 0 {
		t.Errorf("postmortem health snapshot shows no failures: %+v", h)
	}

	// Lag instrumentation: one histogram sample per analysis hop.
	var lagCount uint64
	for _, m := range reg.Snapshot() {
		if m.Name == "rim_stream_lag_seconds" {
			lagCount = m.Count
		}
	}
	if lagCount == 0 {
		t.Error("rim_stream_lag_seconds recorded no samples")
	}

	// The build stage covers the incremental TRRS extend: on a stream
	// whose analysis runs, every extend event of a hop lies inside that
	// hop's build span.
	hcfg := streamConfig(arr)
	hcfg.SpanSeconds = 1
	hcfg.HopSeconds = 0.1
	hrec := trace.NewRecorder(1 << 14)
	hcfg.Core.Trace = hrec
	hreg := obs.NewRegistry()
	hcfg.Core.Obs = hreg
	hst, err := NewStreamer(hcfg, 100, 3, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pushes; i++ {
		if _, err := hst.Push(mk()); err != nil {
			t.Fatalf("healthy push %d: %v", i, err)
		}
	}
	hevents := hrec.Snapshot()
	builds := map[int64][]trace.Event{}
	for _, e := range hevents {
		if e.Kind == trace.KindBuild {
			builds[e.Hop] = append(builds[e.Hop], e)
		}
	}
	extends := 0
	for _, e := range hevents {
		if e.Kind != trace.KindTRRSExtend {
			continue
		}
		extends++
		inside := false
		for _, b := range builds[e.Hop] {
			inside = inside || (e.T >= b.T && e.T <= b.T+b.Dur)
		}
		if !inside {
			t.Errorf("hop %d trrs_extend event at %d ns outside its trrs_build span", e.Hop, e.T)
		}
	}
	if extends == 0 {
		t.Error("healthy stream recorded no trrs_extend events")
	}

	// The derived matrices are timed apart from the extend: one build and
	// one derived sample per hop.
	counts := map[string]uint64{}
	for _, m := range hreg.Snapshot() {
		counts[m.Name] = m.Count
	}
	if b, d := counts["rim_trrs_build_seconds"], counts["rim_trrs_derived_seconds"]; b == 0 || d != b {
		t.Errorf("healthy stream timed %d builds and %d derived passes, want equal and > 0", b, d)
	}
}

// TestBatchTraceHopZero verifies the batch pipeline's trace scope: one hop-0
// span covering every slot, movement/align spans and segment events tagged
// hop 0, so batch and stream traces share one lineage convention.
func TestBatchTraceHopZero(t *testing.T) {
	rate := 100.0
	arr := array.NewLinear3(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.5)
	b.MoveDir(0, 1.0, 0.4)
	b.Pause(0.5)
	s := buildSeries(t, b.Build(), arr, 42)
	rec := trace.NewRecorder(1 << 12)
	cfg := testConfigV20(arr)
	cfg.Trace = rec
	if _, err := ProcessSeries(s, cfg); err != nil {
		t.Fatal(err)
	}
	events := rec.Snapshot()
	var hopSpans, movement, aligns, segments int
	for _, e := range events {
		if e.Hop != 0 && e.Hop != -1 {
			t.Fatalf("batch event with hop %d (kind %v), want 0 or -1", e.Hop, e.Kind)
		}
		switch e.Kind {
		case trace.KindHop:
			hopSpans++
			if e.A != 0 || e.B != int64(s.NumSlots()) {
				t.Errorf("batch hop window [%d,%d), want [0,%d)", e.A, e.B, s.NumSlots())
			}
			if e.Dur <= 0 {
				t.Error("batch hop span has no duration")
			}
		case trace.KindMovement:
			movement++
		case trace.KindAlign:
			aligns++
		case trace.KindSegment:
			segments++
		}
	}
	if hopSpans != 1 {
		t.Fatalf("batch run emitted %d hop spans, want 1", hopSpans)
	}
	if movement == 0 || aligns == 0 || segments == 0 {
		t.Errorf("missing stage events: %d movement, %d align, %d segment",
			movement, aligns, segments)
	}
}

// TestStageMetricsMatchTraceSpans streams a walk with a live registry and
// recorder: every stage run feeds one duration to both sinks, so for each
// stage in trace.Stages the histogram counts its kind's spans and sums
// their durations. The stages and counters are resolved once, in
// NewStreamer: a registry swapped into the stream's config afterwards
// stays empty, because no hop looks a handle up.
func TestStageMetricsMatchTraceSpans(t *testing.T) {
	arr := array.NewPairArray(spacing)
	s := daemonLoopSeries(t, arr, 1, false, 2, 3)
	cfg := daemonStreamConfig(arr)
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(1 << 16)
	cfg.Core.Obs = reg
	cfg.Core.Trace = rec
	st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	late := obs.NewRegistry()
	st.cfg.Core.Obs = late
	pushSeries(t, st, s, nil)
	if rec.TotalEmitted() > uint64(rec.Cap()) {
		t.Fatalf("%d events overflowed the %d-event ring", rec.TotalEmitted(), rec.Cap())
	}
	if m := late.Snapshot(); len(m) != 0 {
		t.Errorf("hops resolved %d metrics from the stream's config, e.g. %s", len(m), m[0].Name)
	}

	spans := map[trace.Kind]uint64{}
	durs := map[trace.Kind]int64{}
	for _, e := range rec.Snapshot() {
		spans[e.Kind]++
		durs[e.Kind] += e.Dur
	}
	for _, k := range trace.Stages() {
		h := reg.Timer(k.Metric(), "")
		if h.Count() == 0 || h.Count() != spans[k] {
			t.Errorf("%s: histogram counts %d runs, the trace %d %v spans", k.Metric(), h.Count(), spans[k], k)
			continue
		}
		if want := float64(durs[k]) / 1e9; math.Abs(h.Sum()-want) > 1e-9*want {
			t.Errorf("%s: histogram sums %.12g s, the %v spans %.12g s", k.Metric(), h.Sum(), k, want)
		}
	}
}

// TestIngestLagStampIsSpanEnd pins the ingest path's clock reads: with a
// recorder attached, the ingest span runs on the lag path's clock, so each
// buffered slot's ingest stamp is its ingest span's end (T + Dur), not a
// third clock read.
func TestIngestLagStampIsSpanEnd(t *testing.T) {
	arr := array.NewPairArray(spacing)
	s := daemonLoopSeries(t, arr, 1, false, 1, 3)
	cfg := daemonStreamConfig(arr)
	rec := trace.NewRecorder(1 << 16)
	cfg.Core.Trace = rec
	st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		pushSlot(t, st, s, ti, nil)
	}
	if rec.TotalEmitted() > uint64(rec.Cap()) {
		t.Fatalf("%d events overflowed the %d-event ring", rec.TotalEmitted(), rec.Cap())
	}
	ends := map[int64]int64{}
	for _, e := range rec.Snapshot() {
		if e.Kind == trace.KindIngest {
			ends[e.Frame] = e.T + e.Dur
		}
	}
	if len(st.ingestNs) != st.bufLen() || st.dropped == 0 {
		t.Fatalf("%d ingest stamps for a %d-slot window (%d slots trimmed)", len(st.ingestNs), st.bufLen(), st.dropped)
	}
	first := int64(st.samples - st.bufLen())
	for i, stamp := range st.ingestNs {
		end, ok := ends[first+int64(i)]
		if !ok || stamp != end {
			t.Fatalf("slot %d: ingest stamp %d ns, its ingest span ends at %d ns (span traced: %v)",
				first+int64(i), stamp, end, ok)
		}
	}
}
