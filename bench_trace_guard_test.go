package rim

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"rim/internal/obs/trace"
)

// nilTraceOpCost measures one disabled tracing bundle: a nil-recorder
// instant emit, a nil stage start/end, and a nil flight-recorder offer —
// the exact shapes the hot path calls when tracing is off. None of them
// may read a clock or touch an atomic.
func nilTraceOpCost() time.Duration {
	var r *trace.Recorder
	var st *trace.Stage
	var f *trace.Flight
	const n = 1 << 18
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.Emit(trace.KindIngest, -1, int64(i), 0, 0)
		sp := st.Start(-1, int64(i))
		sp.End()
		f.Offer(trace.ReasonDegradedEstimates, -1, nil)
	}
	return time.Since(t0) / n
}

// TestTraceOverheadGuard is the causal-tracing twin of TestObsOverheadGuard:
// with the recorder disabled (nil), the tracing call sites threaded through
// ingest, the TRRS engine and the per-hop pipeline must stay invisible on
// the streaming hot path — the measured cost of a disabled tracing bundle
// times the call sites a slot executes must stay under 2% of the measured
// per-slot streaming cost. A live recorder is additionally checked against
// a loose ceiling (ring writes are a few atomics plus one clock read per
// span, so enabling tracing must never dominate the pipeline arithmetic).
// It reuses the committed BENCH_obs.json fixture so both guards judge the
// same workload.
func TestTraceOverheadGuard(t *testing.T) {
	raw, err := os.ReadFile(obsBaselineFile)
	if err != nil {
		t.Fatalf("missing committed baseline: %v", err)
	}
	var bl obsBaseline
	if err := json.Unmarshal(raw, &bl); err != nil {
		t.Fatalf("corrupt %s: %v", obsBaselineFile, err)
	}
	if bl.Fixture.Slots <= 0 || bl.Fixture.Ants <= 0 {
		t.Fatalf("degenerate baseline: %+v", bl)
	}

	s := obsGuardSeries(&bl)
	sites := disabledSitesPerSlot(s)
	rec := trace.NewRecorder(0)
	// 36 rounds: the live ratio's median over 12 spread from -11% to +25%
	// while other packages' tests and builds ran on the same two cores.
	perOp, nilSlot, ratios := overheadRounds(36, nilTraceOpCost,
		func() time.Duration { return replaySlotCost(s, nil, nil, nil) },
		func() time.Duration { return replaySlotCost(s, nil, nil, rec) })
	liveSlot := time.Duration(ratios[0] * float64(nilSlot))

	nilFrac := float64(perOp) * sites / float64(nilSlot)
	liveFrac := ratios[0] - 1
	t.Logf("cores=%d nil trace op=%v slot(nil)=%v slot(live)=%v nil-budget overhead=%.3f%% live overhead=%.1f%% events=%d",
		runtime.GOMAXPROCS(0), perOp, nilSlot, liveSlot, nilFrac*100, liveFrac*100, rec.TotalEmitted())

	if rec.TotalEmitted() == 0 {
		t.Error("live replay emitted no trace events: recorder not wired through the streamer")
	}
	if nilFrac >= 0.02 {
		t.Errorf("disabled tracing budget %.2f%% of a slot (>= 2%%): %v per op, %v per slot",
			nilFrac*100, perOp, nilSlot)
	}
	if liveFrac > 0.25 {
		t.Errorf("live recorder slows streaming by %.0f%% (> 25%%): nil %v/slot, live %v/slot",
			liveFrac*100, nilSlot, liveSlot)
	}
}
