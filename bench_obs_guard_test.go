package rim

import (
	"encoding/json"
	"errors"
	"flag"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/trace"
)

var updateBenchObs = flag.Bool("update-bench-obs", false, "rewrite BENCH_obs.json with this machine's measurements")

// obsBaseline is the committed observability-overhead baseline. The fixture
// pins the streaming workload; the recorded numbers document the machine
// the baseline was taken on. Like BENCH_trrs.json, regressions are judged
// by ratios measured live on the current machine, never by someone else's
// absolute nanoseconds.
type obsBaseline struct {
	Fixture struct {
		Ants  int   `json:"ants"`
		Tx    int   `json:"tx"`
		Sub   int   `json:"sub"`
		Slots int   `json:"slots"`
		Seed  int64 `json:"seed"`
	} `json:"fixture"`
	Baseline struct {
		Cores int `json:"cores"`
		// NilNsPerOp is the measured cost of one disabled instrumentation
		// bundle (nil counter increment + nil span start/end).
		NilNsPerOp float64 `json:"nil_ns_per_op"`
		// NilNsPerSlot / LiveNsPerSlot are the streaming replay costs with
		// the registry detached vs attached.
		NilNsPerSlot  float64 `json:"nil_ns_per_slot"`
		LiveNsPerSlot float64 `json:"live_ns_per_slot"`
		// NilOverheadFrac bounds the disabled-instrumentation share of a
		// slot (one nil bundle per call site the slot executes, against
		// the measured slot cost); LiveOverheadFrac is the measured
		// live-registry slowdown.
		NilOverheadFrac  float64 `json:"nil_overhead_frac"`
		LiveOverheadFrac float64 `json:"live_overhead_frac"`
		// QualityNsPerSlot / QualityOverheadFrac record the replay cost
		// with the estimator-quality engine attached on top of the live
		// registry, and its slowdown over the nil-registry replay.
		QualityNsPerSlot    float64 `json:"quality_ns_per_slot"`
		QualityOverheadFrac float64 `json:"quality_overhead_frac"`
	} `json:"baseline"`
	Note string `json:"note"`
}

const obsBaselineFile = "BENCH_obs.json"

// disabledSitesPerSlot replays the fixture once with a live registry and
// recorder and counts the instrumentation call sites a streamed slot
// executes; the nil budgets charge one disabled bundle to each. It counts
// every stage span (its Start and End, which one bundle times together),
// every other trace event and histogram observation, and every counter
// update, where an Add(n) counts n, so the count bounds the counter calls
// from above. Gauge sets (three a hop) leave no count and are not charged.
func disabledSitesPerSlot(s *csi.Series) float64 {
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(0)
	replaySlotCost(s, reg, nil, rec)
	sites := rec.TotalEmitted()
	for _, m := range reg.Snapshot() {
		switch m.Type {
		case "counter":
			sites += uint64(m.Value)
		case "histogram":
			sites += m.Count
		}
	}
	for _, k := range trace.Stages() {
		sites -= reg.Timer(k.Metric(), "").Count() // counted as trace events
	}
	return float64(sites) / float64(s.NumSlots())
}

// obsGuardSeries rebuilds the baseline's deterministic random fixture.
func obsGuardSeries(bl *obsBaseline) *csi.Series {
	rng := rand.New(rand.NewSource(bl.Fixture.Seed))
	f := bl.Fixture
	s := &csi.Series{
		Rate: 100, NumAnts: f.Ants, NumTx: f.Tx, NumSub: f.Sub,
		H: make([][][][]complex128, f.Ants),
	}
	for a := 0; a < f.Ants; a++ {
		s.H[a] = make([][][]complex128, f.Tx)
		for tx := 0; tx < f.Tx; tx++ {
			s.H[a][tx] = make([][]complex128, f.Slots)
			for t := 0; t < f.Slots; t++ {
				v := make([]complex128, f.Sub)
				for k := range v {
					v[k] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				s.H[a][tx][t] = v
			}
		}
	}
	return s
}

// nilOpCost measures one disabled instrumentation bundle: a nil-counter
// increment, a nil stage start/end (no clock reads, no atomics), and the
// nil estimator-quality calls the streamer and fusion hot paths now carry.
func nilOpCost() time.Duration {
	var c *obs.Counter
	var st *trace.Stage
	var e *quality.Engine
	var m *quality.Monitor
	const n = 1 << 18
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c.Inc()
		sp := st.Start(-1, int64(i))
		sp.End()
		e.ObserveKappa(0.5)
		e.ObserveOutcome(0.5, true)
		m.Innovation(0, "nil", 0, 1)
	}
	return time.Since(t0) / n
}

// replaySlotCost replays the fixture once through a streamer with the
// given registry, quality engine and trace recorder wired in (each nil =
// disabled) and returns the wall time per slot.
func replaySlotCost(s *csi.Series, reg *obs.Registry, qual *quality.Engine, rec *trace.Recorder) time.Duration {
	cfg := core.StreamConfig{Core: core.FastConfig(array.NewLinear3(0.029))}
	cfg.Core.Obs = reg
	cfg.Core.Quality = qual
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

// overheadRounds is the overhead guards' estimator. A single ~18 ms
// replay varies by a quarter either way on a shared host, and one ~2 ms
// timing of a disabled bundle by half, so everything is timed in
// interleaved rounds: each round times opCost (one disabled bundle) and
// runs every replay once, each from a collected heap, rotating which
// replay goes first, and the first round only warms them up. It returns
// the median of opCost over the rounds; the fastest time of replays[0],
// the uninstrumented baseline (the strictest denominator for a nil
// budget); and for each other replay the median over the rounds of its
// ratio to the baseline's time in the same round, which load that comes
// or goes mid-test shifts for both sides of a pair alike.
func overheadRounds(rounds int, opCost func() time.Duration, replays ...func() time.Duration) (perOp, baseBest time.Duration, ratios []float64) {
	baseBest = time.Duration(math.MaxInt64)
	ops := make([]float64, 0, rounds)
	paired := make([][]float64, len(replays)-1)
	d := make([]time.Duration, len(replays))
	for r := 0; r <= rounds; r++ {
		op := opCost()
		for i := range replays {
			k := (r + i) % len(replays)
			runtime.GC()
			d[k] = replays[k]()
		}
		if r == 0 {
			continue
		}
		ops = append(ops, float64(op))
		baseBest = min(baseBest, d[0])
		for k := range paired {
			paired[k] = append(paired[k], float64(d[k+1])/float64(d[0]))
		}
	}
	for _, p := range paired {
		ratios = append(ratios, median(p))
	}
	return time.Duration(median(ops)), baseBest, ratios
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// TestObsOverheadGuard is the observability overhead regression guard: on
// the committed streaming fixture, disabled instrumentation (nil registry)
// must stay invisible on the hot path. The uninstrumented code no longer
// exists to diff against, so the bound is constructed: the measured cost
// of a disabled instrumentation bundle times the call sites a slot
// executes (disabledSitesPerSlot) must stay under 2% of the measured
// per-slot streaming cost. The live-registry and quality-engine replays
// are additionally checked against loose ceilings so switching them on
// can never silently become catastrophic; all three replays share
// overheadRounds' interleaved rounds. Run with -update-bench-obs to
// re-record BENCH_obs.json.
func TestObsOverheadGuard(t *testing.T) {
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
	live := obs.NewRegistry()
	qreg := obs.NewRegistry()
	qual := quality.New(quality.Config{Obs: qreg})
	sites := disabledSitesPerSlot(s)
	perOp, nilSlot, ratios := overheadRounds(12, nilOpCost,
		func() time.Duration { return replaySlotCost(s, nil, nil, nil) },
		func() time.Duration { return replaySlotCost(s, live, nil, nil) },
		func() time.Duration { return replaySlotCost(s, qreg, qual, nil) })
	liveSlot := time.Duration(ratios[0] * float64(nilSlot))
	qualSlot := time.Duration(ratios[1] * float64(nilSlot))

	nilFrac := float64(perOp) * sites / float64(nilSlot)
	liveFrac := ratios[0] - 1
	qualFrac := ratios[1] - 1
	t.Logf("cores=%d nil op=%v sites/slot=%.1f slot(nil)=%v slot(live)=%v slot(quality)=%v nil-budget overhead=%.3f%% live overhead=%.1f%% quality overhead=%.1f%%",
		runtime.GOMAXPROCS(0), perOp, sites, nilSlot, liveSlot, qualSlot, nilFrac*100, liveFrac*100, qualFrac*100)

	if nilFrac >= 0.02 {
		t.Errorf("disabled instrumentation budget %.2f%% of a slot (>= 2%%): %v per op, %v per slot",
			nilFrac*100, perOp, nilSlot)
	}
	// Loose ceiling: the live registry is allowed real cost (atomics, clock
	// reads) but must never dominate the pipeline arithmetic.
	if liveFrac > 0.25 {
		t.Errorf("live registry slows streaming by %.0f%% (> 25%%): nil %v/slot, live %v/slot",
			liveFrac*100, nilSlot, liveSlot)
	}
	// The quality engine adds per-slot histogram observations on top of the
	// live registry; it gets the same kind of loose ceiling, measured and
	// recorded rather than assumed free.
	if qualFrac > 0.30 {
		t.Errorf("quality engine slows streaming by %.0f%% (> 30%%): nil %v/slot, quality %v/slot",
			qualFrac*100, nilSlot, qualSlot)
	}

	if *updateBenchObs {
		bl.Baseline.Cores = runtime.GOMAXPROCS(0)
		bl.Baseline.NilNsPerOp = float64(perOp.Nanoseconds())
		bl.Baseline.NilNsPerSlot = float64(nilSlot.Nanoseconds())
		bl.Baseline.LiveNsPerSlot = float64(liveSlot.Nanoseconds())
		bl.Baseline.NilOverheadFrac = nilFrac
		bl.Baseline.LiveOverheadFrac = liveFrac
		bl.Baseline.QualityNsPerSlot = float64(qualSlot.Nanoseconds())
		bl.Baseline.QualityOverheadFrac = qualFrac
		out, err := json.MarshalIndent(&bl, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(obsBaselineFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", obsBaselineFile)
	}
}
