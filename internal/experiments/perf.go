package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/obs/trace"
	"rim/internal/traj"
	"rim/internal/trrs"
)

// PerfResult carries the streaming-engine measurements no guard test
// takes: the incremental replay throughput of one simulated walk, one
// steady-state hop's cost, and the per-stage latency distribution of the
// instrumented replay. The batch-build comparisons (serial vs pool,
// kernels, float32 planes, batching, symmetry) live in TestBenchGuard and
// BENCH_trrs.json. The struct marshals to the JSON perf row rimbench
// -json emits.
type PerfResult struct {
	Report *Report `json:"-"`
	// IncrementalSlotsPerSec is the streaming replay throughput.
	IncrementalSlotsPerSec float64 `json:"incremental_slots_per_sec"`
	// HopNs and HopAllocsPerOp are one steady-state incremental hop
	// (append W, drop W, refresh the pair matrix), run serially. The
	// hot path runs in ring- and matrix-owned storage, so allocs/op is 0
	// once the window geometry has settled.
	HopNs          float64 `json:"hop_ns"`
	HopAllocsPerOp float64 `json:"hop_allocs_per_op"`
	// Stages holds the per-stage latency percentiles of an instrumented
	// (registry-attached) incremental replay of the same trace.
	Stages []StageLatency `json:"stages,omitempty"`
}

// StageLatency summarizes one pipeline stage's latency histogram.
type StageLatency struct {
	// Stage is the metric name (e.g. "rim_hop_seconds").
	Stage string  `json:"stage"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// perfSeries simulates the walk both measurements replay.
func perfSeries(scale Scale) *csi.Series {
	setup := NewSetup(scale, 0, 9901)
	rate := scale.Rate()
	b := traj.NewBuilder(rate, geom.Pose{Pos: setup.Area})
	b.Pause(1)
	b.MoveDir(0, scale.PickF(1.5, 4), 0.4)
	b.Pause(1)
	s, err := setup.Acquire(array.NewLinear3(Spacing), b.Build(), 9902)
	if err != nil {
		panic(err)
	}
	return s
}

// timeBest returns the best-of-reps wall time of f.
func timeBest(reps int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// hopStats measures one steady-state (serial) incremental hop:
// best-of-reps wall time plus the malloc count per hop (via the runtime's
// cumulative Mallocs counter, averaged over a settled run).
func hopStats(s *csi.Series, w, reps int) (time.Duration, float64) {
	inc, err := trrs.NewIncremental(s.Rate, s.NumAnts, s.NumTx, w)
	if err != nil {
		panic(err)
	}
	snaps := make([][][][]complex128, s.NumSlots())
	for ti := range snaps {
		snap := make([][][]complex128, s.NumAnts)
		for a := 0; a < s.NumAnts; a++ {
			snap[a] = make([][]complex128, s.NumTx)
			for tx := 0; tx < s.NumTx; tx++ {
				snap[a][tx] = s.H[a][tx][ti]
			}
		}
		snaps[ti] = snap
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(snaps[ti]); err != nil {
			panic(err)
		}
	}
	if _, err := inc.ExtendMatrix(0, 2); err != nil {
		panic(err)
	}
	k := 0
	hopOnce := func() {
		for n := 0; n < w; n++ {
			if err := inc.Append(snaps[k%len(snaps)]); err != nil {
				panic(err)
			}
			k++
		}
		inc.DropFront(w)
		if _, err := inc.ExtendMatrix(0, 2); err != nil {
			panic(err)
		}
	}
	for n := 0; n < 12; n++ {
		hopOnce() // settle the CSI ring and the matrix ring
	}
	best := timeBest(reps, hopOnce)
	// Mallocs is process-wide, so runtime background work (GC assists,
	// timer wakeups) can leak a stray allocation into the window. A real
	// per-hop allocation shows up in every attempt; noise doesn't — take
	// the minimum over a few attempts.
	const allocRuns = 10
	allocs := math.Inf(1)
	for attempt := 0; attempt < 3; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < allocRuns; n++ {
			hopOnce()
		}
		runtime.ReadMemStats(&after)
		allocs = math.Min(allocs, float64(after.Mallocs-before.Mallocs)/allocRuns)
		if allocs == 0 {
			break
		}
	}
	return best, allocs
}

// replayThroughput replays s through a fresh streamer and returns slots/s.
func replayThroughput(s *csi.Series, cfg core.StreamConfig) float64 {
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
	return float64(s.NumSlots()) / time.Since(t0).Seconds()
}

// stageLatencies replays the trace once more with a live registry attached
// and extracts each stage's latency percentiles. The replay is separate
// from the timed throughput run so instrumentation cost never pollutes
// it.
func stageLatencies(s *csi.Series, cfg core.StreamConfig) []StageLatency {
	reg := obs.NewRegistry()
	cfg.Core.Obs = reg
	replayThroughput(s, cfg)
	var out []StageLatency
	for _, k := range trace.Stages() {
		h := reg.Histogram(k.Metric(), "", nil)
		if h.Count() == 0 {
			continue
		}
		out = append(out, StageLatency{
			Stage: k.Metric(),
			Count: h.Count(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		})
	}
	return out
}

// Perf measures the streaming engine on one simulated walk: the
// end-to-end incremental replay, one steady-state hop and the per-stage
// latencies. This is the reproduction's throughput row — the paper's
// real-time claim (§6.1, 200 Hz on a laptop) needs the streaming hop cost
// to stay sub-hop.
func Perf(scale Scale) *PerfResult {
	s := perfSeries(scale)
	cfg := core.StreamConfig{Core: CoreConfig(scale, array.NewLinear3(Spacing))}
	w := int(math.Round(cfg.Core.WindowSeconds * s.Rate))
	hopNs, hopAllocs := hopStats(s, w, scale.Pick(3, 5))
	incremental := replayThroughput(s, cfg)
	out := &PerfResult{
		IncrementalSlotsPerSec: incremental,
		HopNs:                  float64(hopNs.Nanoseconds()),
		HopAllocsPerOp:         hopAllocs,
		Stages:                 stageLatencies(s, cfg),
	}

	rep := &Report{
		ID:         "Perf",
		Title:      "Streaming engine throughput (incremental replay, steady-state hop, stage latencies)",
		PaperClaim: "real-time at 200 Hz on a laptop (§6.1); engine must keep per-hop cost below the hop interval",
		Columns:    []string{"path", "metric", "value", "note"},
	}
	rep.AddRow("stream incremental", "throughput", fmt.Sprintf("%.0f slots/s", incremental),
		fmt.Sprintf("%.1fx real time", incremental/s.Rate))
	rep.AddRow("incremental hop", "steady-state cost", hopNs.Round(time.Microsecond).String(),
		fmt.Sprintf("%.0f allocs/op", hopAllocs))
	rep.AddNote("GOMAXPROCS=%d; trace %d slots at %.0f Hz, W=%d slots; batch-build comparisons: TestBenchGuard / BENCH_trrs.json",
		runtime.GOMAXPROCS(0), s.NumSlots(), s.Rate, w)
	for _, sl := range out.Stages {
		rep.AddRow(sl.Stage, "latency P50/P90/P99",
			fmt.Sprintf("%s / %s / %s", fmtSec(sl.P50), fmtSec(sl.P90), fmtSec(sl.P99)),
			fmt.Sprintf("n=%d", sl.Count))
	}
	out.Report = rep
	return out
}

// fmtSec renders a latency in engineering units.
func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
