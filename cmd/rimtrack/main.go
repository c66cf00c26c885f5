// Command rimtrack demonstrates RIM's indoor tracking end to end: it
// simulates a cart pushed through the paper's office floorplan (with
// sideway movements, Fig. 20), runs the full pipeline, and renders the
// ground-truth and estimated trajectories on an ASCII map of the floor.
//
// Usage:
//
//	rimtrack [-ap 0] [-seed 1] [-speed 0.5] [-fused] [-backend particle|eskf]
//	         [-quality] [-loss 0.3] [-dead-ant 2]
//	         [-kernel vector|sequential] [-precision float64|float32]
//	         [-debug-addr :6060] [-debug-linger 30s]
//	         [-trace-out trace.json] [-postmortem-out dir]
//
// -trace-out writes a Chrome trace-event JSON of the run's causal trace,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// -postmortem-out names a directory flight-recorder bundles are written to
// when the run degrades. -debug-linger only matters together with
// -debug-addr (there is no server to keep alive without one).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"sync"
	"time"

	"rim/internal/apps/tracking"
	"rim/internal/array"
	"rim/internal/camera"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/experiments"
	"rim/internal/faults"
	"rim/internal/floorplan"
	"rim/internal/fusion"
	"rim/internal/geom"
	"rim/internal/imu"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/trace"
	"rim/internal/rf"
	"rim/internal/traj"
	"rim/internal/trrs"
	"rim/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is rimtrack's body: it parses args, runs the demo with its output
// on stdout and diagnostics on stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rimtrack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	apID := fs.Int("ap", 0, "AP location id (0-6, see Fig. 10)")
	seed := fs.Int64("seed", 1, "simulation seed")
	speed := fs.Float64("speed", 0.5, "cart speed, m/s")
	fused := fs.Bool("fused", false, "fuse RIM distance with gyro heading + a fusion backend (Fig. 21) instead of pure RIM")
	backendName := fs.String("backend", "particle", "fusion backend for -fused: particle (map-constrained filter) or eskf (error-state Kalman + ZUPT)")
	lossFrac := fs.Float64("loss", 0, "inject Gilbert–Elliott bursty packet loss with this mean loss fraction")
	deadAnt := fs.Int("dead-ant", -1, "antenna index with a dead RF chain from -dead-from seconds on (-1 = none)")
	deadFrom := fs.Float64("dead-from", 2, "time at which -dead-ant fails, seconds")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz, /debug/pprof, /debug/rimtrace and /debug/postmortem on this address (e.g. :6060)")
	debugLinger := fs.Duration("debug-linger", 0, "keep the debug server up this long after the run, for scraping (requires -debug-addr)")
	traceOut := fs.String("trace-out", "", "write the run's causal trace as Chrome trace-event JSON (open in Perfetto or chrome://tracing)")
	pmOut := fs.String("postmortem-out", "", "directory flight-recorder postmortem bundles are written to on degradation")
	kernelName := fs.String("kernel", "", "TRRS kernel: vector (default), sequential (bit-exact oracle)")
	precName := fs.String("precision", "", "TRRS plane precision: float64 (default, bit-exact), float32")
	qualityOn := fs.Bool("quality", false, "attach an estimator-consistency monitor to the fusion backend and print its verdict (requires -fused)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	kernel, err := trrs.ParseKernel(*kernelName)
	if err != nil {
		fmt.Fprintln(stderr, "rimtrack:", err)
		return 2
	}
	precision, err := trrs.ParsePrecision(*precName)
	if err != nil {
		fmt.Fprintln(stderr, "rimtrack:", err)
		return 2
	}

	// Observability is opt-in: without -debug-addr, -trace-out or
	// -postmortem-out the registry and recorder stay nil and every
	// instrumentation hook below is a no-op.
	var reg *obs.Registry
	var health healthState
	var rec *trace.Recorder
	var flight *trace.Flight
	if *debugAddr != "" || *traceOut != "" || *pmOut != "" {
		reg = obs.NewRegistry()
		rec = trace.NewRecorder(0)
		flight = trace.NewFlight(trace.FlightConfig{
			Recorder: rec,
			Registry: reg,
			Health:   health.snapshot,
			Dir:      *pmOut,
		})
	}
	if *debugAddr != "" {
		obs.SetLogger(obs.NewTextLogger(stderr, slog.LevelInfo))
		srv, addr, err := obs.StartDebugServer(*debugAddr, reg, health.snapshot,
			obs.Route{Pattern: "/debug/rimtrace", Handler: trace.Handler(rec)},
			obs.Route{Pattern: "/debug/postmortem", Handler: flight.Handler()},
		)
		if err != nil {
			fmt.Fprintln(stderr, "rimtrack:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "rimtrack: debug server on http://%s (/metrics, /healthz, /debug/pprof, /debug/rimtrace, /debug/postmortem)\n", addr)
	} else if *debugLinger > 0 {
		fmt.Fprintln(stderr, "rimtrack: warning: -debug-linger has no effect without -debug-addr; not lingering")
	}

	office := floorplan.NewOffice()
	ap, err := office.AP(*apID)
	if err != nil {
		fmt.Fprintln(stderr, "rimtrack:", err)
		return 2
	}
	area := office.OpenAreaCenter()
	rfCfg := rf.FastConfig()
	rfCfg.Seed = *seed
	env := rf.NewEnvironment(rfCfg, ap.Pos, area, &office.Plan)

	// A floor-scale path with sideway moves: east, sideway north, east,
	// sideway south.
	rate := 100.0
	start := area.Add(geom.Vec2{X: -3, Y: -2})
	b := traj.NewBuilder(rate, geom.Pose{Pos: start})
	b.Pause(0.5)
	b.MoveDir(0, 4, *speed)
	b.Pause(0.7)
	b.MoveDir(geom.Rad(90), 3, *speed)
	b.Pause(0.7)
	b.MoveDir(0, 2, *speed)
	b.Pause(0.7)
	b.MoveDir(geom.Rad(-90), 2, *speed)
	b.Pause(0.5)
	tr := b.Build()
	tr.AddLateralSway(0.004, 0.9)

	arr := array.NewHexagonal(experiments.Spacing)
	arr3 := array.NewLinear3(experiments.Spacing)
	collected := []*array.Array{arr}
	if *fused {
		collected = append(collected, arr3)
	}
	fm, err := faultModel(*lossFrac, *deadAnt, *deadFrom, *seed, collected...)
	if err != nil {
		fmt.Fprintln(stderr, "rimtrack:", err)
		return 2
	}
	rcv := csi.RealisticReceiver(*seed)
	rcv.Obs = reg
	rcv.Trace = rec
	if fm != nil {
		fm.Obs = reg
		fm.Trace = rec
		rcv.Faults = fm
	}

	series, err := csi.Collect(env, arr, tr, rcv).Process(true)
	if err != nil {
		fmt.Fprintln(stderr, "rimtrack:", err)
		return 1
	}
	health.ingest(series)
	cfg := experiments.CoreConfig(experiments.Fast, arr)
	cfg.Kernel = kernel
	cfg.Precision = precision
	cfg.Obs = reg
	cfg.Trace = rec
	cfg.Flight = flight
	camCfg := camera.DefaultConfig(*seed)

	var res *tracking.Result
	var qualityEng *quality.Engine
	mode := "pure RIM (hexagonal array)"
	if *fused {
		backend, ok := fusion.ParseBackend(*backendName)
		if !ok {
			fmt.Fprintln(stderr, "rimtrack: unknown -backend", *backendName)
			return 2
		}
		mode = "RIM distance + gyro heading + particle filter"
		if backend == fusion.BackendESKF {
			mode = "RIM distance + gyro heading + ESKF (ZUPT-aided)"
		}
		series, err = csi.Collect(env, arr3, tr, rcv).Process(true)
		if err != nil {
			fmt.Fprintln(stderr, "rimtrack:", err)
			return 1
		}
		health.ingest(series)
		cfg.Array = arr3 // the same operating point and flags, on the fused run's array
		readings := imu.Simulate(tr, imu.DefaultConfig(*seed))
		pfCfg := fusion.DefaultConfig(*seed)
		pfCfg.Backend = backend
		pfCfg.Obs = reg
		pfCfg.Trace = rec
		if *qualityOn {
			qualityEng = quality.New(quality.Config{Obs: reg, Trace: rec, Flight: flight})
			mon := qualityEng.Monitor("run")
			pfCfg.Innovations = func(ch int, nu, s float64) {
				mon.Innovation(ch, fusion.ChannelName(ch), nu, s)
			}
			pfCfg.PFStats = mon.PFStep
		}
		res, err = tracking.Fused(series, cfg, readings, tracking.FusedConfig{
			UsePF: true,
			PF:    pfCfg,
			Plan:  &office.Plan,
		}, geom.Pose{Pos: start}, tr, camCfg)
	} else {
		res, err = tracking.PureRIM(series, cfg, geom.Pose{Pos: start}, tr, camCfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "rimtrack:", err)
		return 1
	}

	fmt.Fprintf(stdout, "RIM indoor tracking demo — %s\n", mode)
	fmt.Fprintf(stdout, "AP #%d at (%.1f, %.1f) — %s to the experiment area\n",
		*apID, ap.Pos.X, ap.Pos.Y, losStr(env, area))
	fmt.Fprintf(stdout, "path length %.1f m (estimated %.1f m), median error %.2f m, P90 %.2f m\n",
		res.TruthDistance, res.EstimatedDistance, res.MedianError, res.P90Error)
	if res.Core != nil {
		if df := res.Core.DegradedFraction(); df > 0 {
			fmt.Fprintf(stdout, "degraded slots: %.0f%% (packet loss / dead chains / analysis fallbacks)\n", df*100)
		}
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, viz.TruthVsEstimate(91, 35, &office.Plan, res.Truth, res.Estimated,
		map[byte]geom.Vec2{'A': ap.Pos}))

	if res.Core != nil {
		fmt.Fprintln(stdout, "\nsegments:")
		for i, seg := range res.Core.Segments {
			switch seg.Kind {
			case core.MotionTranslate:
				fmt.Fprintf(stdout, "  %d: translate %.2f m heading %+.0f° (conf %.2f)\n",
					i+1, seg.Distance, deg(seg.HeadingBody), seg.Confidence)
			case core.MotionRotate:
				fmt.Fprintf(stdout, "  %d: rotate %+.0f°\n", i+1, deg(seg.Angle))
			default:
				fmt.Fprintf(stdout, "  %d: unresolved movement\n", i+1)
			}
		}
	}

	if *qualityOn && qualityEng == nil {
		fmt.Fprintln(stderr, "rimtrack: warning: -quality has no effect without -fused")
	}
	if qualityEng != nil {
		st, frac, n := qualityEng.Monitor("run").Summary()
		fmt.Fprintf(stdout, "\nestimator quality: %s (%d consistency samples, worst channel %.0f%% outside its chi-square band)\n",
			st, n, frac*100)
		for _, ent := range qualityEng.Snapshot().Entities {
			for _, ch := range ent.Channels {
				fmt.Fprintf(stdout, "  channel %-10s %-5s %5d samples, %.0f%% outside band\n",
					ch.Channel, ch.State, ch.Samples, ch.OutsideFrac*100)
			}
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "rimtrack:", err)
			return 1
		}
		werr := trace.WriteJSON(f, rec)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, "rimtrack: writing trace:", werr)
			return 1
		}
		fmt.Fprintf(stderr, "rimtrack: wrote %d trace events to %s — open in Perfetto (ui.perfetto.dev) or chrome://tracing\n",
			rec.TotalEmitted(), *traceOut)
	}
	if flight.Captures() > 0 && *pmOut != "" {
		fmt.Fprintf(stderr, "rimtrack: flight recorder captured %d postmortem bundle(s) in %s\n",
			flight.Captures(), *pmOut)
	}
	if *debugAddr != "" && *debugLinger > 0 {
		fmt.Fprintf(stderr, "rimtrack: run finished, debug server lingering %s\n", *debugLinger)
		time.Sleep(*debugLinger)
	}
	return 0
}

// healthState assembles the core.Health served on /healthz. The batch demo
// has no Streamer, so the health surface is derived from the collected
// series: slot count and the fraction of (antenna, slot) samples the
// receiver lost or rejected.
type healthState struct {
	mu sync.Mutex
	h  core.Health
}

func (s *healthState) snapshot() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Clone detaches the slices/error: the HTTP handler serializes the
	// snapshot outside this lock.
	return s.h.Clone()
}

func (s *healthState) ingest(series *csi.Series) {
	h := core.HealthOfSeries(series)
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// faultModel builds the fault model the -loss, -dead-ant and -dead-from
// flags describe (nil when they inject nothing) and validates it against
// every array the run collects with, so an antenna index the array does
// not have is an error rather than a silent fault-free run.
func faultModel(lossFrac float64, deadAnt int, deadFrom float64, seed int64, arrs ...*array.Array) (*faults.Model, error) {
	if lossFrac <= 0 && deadAnt < 0 {
		return nil, nil
	}
	fm := &faults.Model{Seed: seed}
	if lossFrac > 0 {
		fm.Loss = faults.NewGilbertElliott(lossFrac, 20)
	}
	if deadAnt >= 0 {
		fm.Dropouts = []faults.Dropout{{Antenna: deadAnt, Start: deadFrom}}
	}
	for _, arr := range arrs {
		nics := 0
		for _, ant := range arr.Antennas {
			nics = max(nics, ant.NIC+1)
		}
		if err := fm.Validate(arr.NumAntennas(), nics); err != nil {
			return nil, fmt.Errorf("%s array: %w", arr.Name, err)
		}
	}
	return fm, nil
}

func deg(r float64) float64 { return r * 180 / math.Pi }

func losStr(env *rf.Environment, p geom.Vec2) string {
	if env.IsLOS(p) {
		return "LOS"
	}
	return "NLOS (through walls)"
}
