package rim

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/obs/trace"
)

// nilTraceOpCost measures one disabled tracing bundle: a nil-recorder
// instant emit, a nil span start/end, and a nil flight-recorder offer —
// the exact shapes the hot path calls when tracing is off. None of them
// may read a clock or touch an atomic.
func nilTraceOpCost() time.Duration {
	var r *trace.Recorder
	var f *trace.Flight
	const n = 1 << 21
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.Emit(trace.KindFrameIngest, -1, int64(i), 0, 0)
		sp := r.Start(trace.KindIngest, -1, int64(i))
		sp.End()
		f.Offer(trace.ReasonDegradedEstimates, -1, nil)
	}
	return time.Since(t0) / n
}

// replaySlotCostTraced replays the obs-guard fixture once through a
// streamer with the given recorder wired in (nil = tracing disabled) and
// returns the wall time per slot. Mirrors replaySlotCost but leaves the
// metrics registry detached so only the tracing delta is measured.
func replaySlotCostTraced(s *csi.Series, rec *trace.Recorder) time.Duration {
	cfg := core.StreamConfig{Core: core.DefaultConfig(array.NewLinear3(0.029))}
	cfg.Core.WindowSeconds = 0.3
	cfg.Core.V = 16
	cfg.Core.Trace = rec
	st, err := core.NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		panic(err)
	}
	snap := make([][][]complex128, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
	t0 := time.Now()
	for ti := 0; ti < s.NumSlots(); ti++ {
		for a := 0; a < s.NumAnts; a++ {
			for tx := 0; tx < s.NumTx; tx++ {
				snap[a][tx] = s.H[a][tx][ti]
			}
		}
		if _, err := st.Push(snap); err != nil && !errors.Is(err, core.ErrAnalysis) {
			panic(err)
		}
	}
	st.Flush()
	return time.Since(t0) / time.Duration(s.NumSlots())
}

// TestTraceOverheadGuard is the causal-tracing twin of TestObsOverheadGuard:
// with the recorder disabled (nil), the tracing call sites threaded through
// ingest, the TRRS engine and the per-hop pipeline must stay invisible on
// the streaming hot path — the measured cost of a disabled tracing bundle
// times the per-slot call-site budget must stay under 2% of the measured
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
	perOp := nilTraceOpCost()
	// Interleaved rounds, alternating which side runs first, each replay
	// from a collected heap: a single ~18 ms replay varies by a quarter
	// either way on a shared host, so the live overhead is the median of
	// the rounds' paired live/nil ratios, which load that comes or goes
	// mid-test shifts for both sides of a pair alike. The nil budget keeps
	// the fastest nil replay as its (strictest) denominator. The first
	// round warms both paths up.
	const rounds = 12
	rec := trace.NewRecorder(0)
	nilSlot := time.Duration(math.MaxInt64)
	ratios := make([]float64, 0, rounds)
	for r := 0; r <= rounds; r++ {
		var nilD, liveD time.Duration
		for i := 0; i < 2; i++ {
			runtime.GC()
			if (r+i)%2 == 0 {
				nilD = replaySlotCostTraced(s, nil)
			} else {
				liveD = replaySlotCostTraced(s, rec)
			}
		}
		if r > 0 {
			nilSlot = min(nilSlot, nilD)
			ratios = append(ratios, float64(liveD)/float64(nilD))
		}
	}
	sort.Float64s(ratios)
	liveRatio := (ratios[(rounds-1)/2] + ratios[rounds/2]) / 2
	liveSlot := time.Duration(liveRatio * float64(nilSlot))

	nilFrac := float64(perOp) * opsPerSlotBudget / float64(nilSlot)
	liveFrac := liveRatio - 1
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
