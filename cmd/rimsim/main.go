// Command rimsim generates simulated CSI traces for offline experiments and
// analyzes recorded ones. In generation mode it builds the office
// environment, runs a configurable motion, and writes the processed CSI
// series (plus ground truth) as JSON (see csi.FileSeries for the schema —
// the same schema real captures can be converted into). With -load it reads
// such a recording and runs the RIM pipeline on it.
//
// Usage:
//
//	rimsim [-motion line|square|backforth|rotate] [-array linear3|hexagonal|lshape]
//	       [-rate 100] [-speed 0.5] [-length 2] [-ap 0] [-seed 1] [-o trace.json]
//	       [-debug-addr :6060] [-debug-linger 30s] [-trace-out rimtrace.json]
//	rimsim -load trace.json
//
// -trace-out writes a Chrome trace-event JSON of the run's causal trace
// (Perfetto / chrome://tracing). -debug-linger only matters together with
// -debug-addr (there is no server to keep alive without one).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"sync"
	"time"

	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/experiments"
	"rim/internal/floorplan"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/obs/trace"
	"rim/internal/rf"
	"rim/internal/traj"
)

// debugState is the opt-in observability of the binary: nil registry and
// recorder (and zero-value health) until -debug-addr or -trace-out is
// given.
type debugState struct {
	reg *obs.Registry
	rec *trace.Recorder

	mu sync.Mutex
	h  core.Health
}

func (d *debugState) snapshot() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Clone detaches the slices/error: the HTTP handler serializes the
	// snapshot outside this lock.
	return d.h.Clone()
}

func (d *debugState) ingest(series *csi.Series) {
	h := core.HealthOfSeries(series)
	d.mu.Lock()
	d.h = h
	d.mu.Unlock()
}

func main() {
	motion := flag.String("motion", "line", "motion kind: line, square, backforth, rotate")
	arrName := flag.String("array", "linear3", "array: linear3, hexagonal, lshape")
	rate := flag.Float64("rate", 100, "CSI packet rate, Hz")
	speed := flag.Float64("speed", 0.5, "speed, m/s")
	length := flag.Float64("length", 2, "motion extent, m (or degrees for rotate)")
	apID := flag.Int("ap", 0, "AP location id (0-6)")
	seed := flag.Int64("seed", 1, "simulation seed")
	out := flag.String("o", "", "output file (default stdout)")
	load := flag.String("load", "", "analyze a recorded trace instead of generating one")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/pprof and /debug/rimtrace on this address (e.g. :6060)")
	debugLinger := flag.Duration("debug-linger", 0, "keep the debug server up this long after the run, for scraping (requires -debug-addr)")
	traceOut := flag.String("trace-out", "", "write the run's causal trace as Chrome trace-event JSON (open in Perfetto or chrome://tracing)")
	flag.Parse()

	dbg := &debugState{}
	if *debugAddr != "" || *traceOut != "" {
		dbg.reg = obs.NewRegistry()
		dbg.rec = trace.NewRecorder(0)
	}
	if *debugAddr != "" {
		obs.SetLogger(obs.NewTextLogger(os.Stderr, slog.LevelInfo))
		srv, addr, err := obs.StartDebugServer(*debugAddr, dbg.reg, dbg.snapshot,
			obs.Route{Pattern: "/debug/rimtrace", Handler: trace.Handler(dbg.rec)},
		)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rimsim: debug server on http://%s (/metrics, /healthz, /debug/pprof, /debug/rimtrace)\n", addr)
		if *debugLinger > 0 {
			defer func() {
				fmt.Fprintf(os.Stderr, "rimsim: run finished, debug server lingering %s\n", *debugLinger)
				time.Sleep(*debugLinger)
			}()
		}
	} else if *debugLinger > 0 {
		fmt.Fprintln(os.Stderr, "rimsim: warning: -debug-linger has no effect without -debug-addr; not lingering")
	}
	if *traceOut != "" {
		defer writeTrace(*traceOut, dbg.rec)
	}

	if *load != "" {
		analyze(*load, dbg)
		return
	}

	arr, err := buildArray(*arrName)
	if err != nil {
		fatal(err)
	}
	office := floorplan.NewOffice()
	ap, err := office.AP(*apID)
	if err != nil {
		fatal(err)
	}
	area := office.OpenAreaCenter()
	rfCfg := rf.FastConfig()
	rfCfg.Seed = *seed
	env := rf.NewEnvironment(rfCfg, ap.Pos, area, &office.Plan)

	var tr *traj.Trajectory
	switch *motion {
	case "line":
		b := traj.NewBuilder(*rate, geom.Pose{Pos: area})
		b.Pause(0.5).MoveDir(0, *length, *speed).Pause(0.5)
		tr = b.Build()
	case "square":
		tr = traj.Square(*rate, area, *length, *speed)
	case "backforth":
		tr = traj.BackAndForth(*rate, area, 0, *length, *speed)
	case "rotate":
		b := traj.NewBuilder(*rate, geom.Pose{Pos: area})
		b.Pause(0.5).RotateInPlace(geom.Rad(*length), geom.Rad(120)).Pause(0.5)
		tr = b.Build()
	default:
		fatal(fmt.Errorf("unknown motion %q", *motion))
	}

	rcv := csi.RealisticReceiver(*seed)
	rcv.Obs = dbg.reg
	rcv.Trace = dbg.rec
	series, err := csi.Collect(env, arr, tr, rcv).Process(true)
	if err != nil {
		fatal(err)
	}
	dbg.ingest(series)

	meta := csi.FileMeta{
		Motion: *motion, Array: *arrName,
		Speed: *speed, Length: *length, APID: *apID, Seed: *seed,
	}
	var truth []csi.FileTruth
	for _, s := range tr.Samples {
		truth = append(truth, csi.FileTruth{
			T: s.T, X: s.Pose.Pos.X, Y: s.Pose.Pos.Y, Theta: s.Pose.Theta,
		})
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := csi.WriteSeries(w, series, meta, truth); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "rimsim: wrote %d slots × %d antennas × %d tx × %d tones\n",
		series.NumSlots(), series.NumAnts, series.NumTx, series.NumSub)
}

// analyze loads a recording and runs the pipeline on it.
func analyze(path string, dbg *debugState) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	series, ff, err := csi.ReadSeries(f)
	if err != nil {
		fatal(err)
	}
	dbg.ingest(series)
	arrName := ff.Meta.Array
	if arrName == "" {
		// Infer from the antenna count.
		switch series.NumAnts {
		case 6:
			arrName = "hexagonal"
		default:
			arrName = "linear3"
		}
	}
	arr, err := buildArray(arrName)
	if err != nil {
		fatal(err)
	}
	scale := experiments.Full
	if series.Rate <= 120 {
		scale = experiments.Fast
	}
	cfg := experiments.CoreConfig(scale, arr)
	cfg.Obs = dbg.reg
	cfg.Trace = dbg.rec
	res, err := core.ProcessSeries(series, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rimsim: %s recording, %d slots at %.0f Hz, %s array\n",
		orDefault(ff.Meta.Motion, "unlabeled"), series.NumSlots(), series.Rate, arrName)
	fmt.Printf("RIM result: distance %.2f m, rotation %.0f°, %d movement segment(s)\n",
		res.Distance, res.RotationAngle*180/math.Pi, len(res.Segments))
	for i, seg := range res.Segments {
		switch seg.Kind {
		case core.MotionTranslate:
			fmt.Printf("  %d: translate %.2f m heading %+.0f°\n",
				i+1, seg.Distance, seg.HeadingBody*180/math.Pi)
		case core.MotionRotate:
			fmt.Printf("  %d: rotate %+.0f°\n", i+1, seg.Angle*180/math.Pi)
		default:
			fmt.Printf("  %d: unresolved movement\n", i+1)
		}
	}
	if len(ff.Truth) > 1 {
		var truthDist float64
		for i := 1; i < len(ff.Truth); i++ {
			dx := ff.Truth[i].X - ff.Truth[i-1].X
			dy := ff.Truth[i].Y - ff.Truth[i-1].Y
			truthDist += math.Hypot(dx, dy)
		}
		fmt.Printf("ground truth distance: %.2f m (error %.1f cm)\n",
			truthDist, math.Abs(res.Distance-truthDist)*100)
	}
}

func buildArray(name string) (*array.Array, error) {
	switch name {
	case "linear3":
		return array.NewLinear3(experiments.Spacing), nil
	case "hexagonal":
		return array.NewHexagonal(experiments.Spacing), nil
	case "lshape":
		return array.NewLShape(experiments.Spacing), nil
	default:
		return nil, fmt.Errorf("unknown array %q", name)
	}
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// writeTrace dumps the recorder as Chrome trace-event JSON (deferred so
// both the generate and -load paths get it on the way out).
func writeTrace(path string, rec *trace.Recorder) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rimsim:", err)
		return
	}
	werr := trace.WriteJSON(f, rec)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, "rimsim: writing trace:", werr)
		return
	}
	fmt.Fprintf(os.Stderr, "rimsim: wrote %d trace events to %s — open in Perfetto (ui.perfetto.dev) or chrome://tracing\n",
		rec.TotalEmitted(), path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rimsim:", err)
	os.Exit(1)
}
