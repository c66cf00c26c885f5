package main

import (
	"math"
	"time"

	"rim/internal/align"
	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/fusion"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/trace"
	"rim/internal/trrs"
)

// replayHops bounds the side replay: enough hops for stable medians, few
// enough that the per-hop batch pipeline build stays cheap.
const replayHops = 24

// layerTimes are the per-layer timings of the side replay of one walker.
type layerTimes struct {
	append, extend, derived, movement, process []time.Duration
}

// replayLayers replays walker 0's frame sequence through the public layer
// functions a streaming hop is built from, timing each from outside:
// trrs.Incremental.Append per frame; per hop the batched ExtendMatrices
// of every pair the pipeline needs, the derived matrices
// (AverageMatricesInto + VirtualMassiveInto), align.MovementIndicator
// with both movement configs, and core.Pipeline.Process over the hop's
// span (which runs the movement indicators again, then pre-detection,
// prominence and the DP tracks).
func replayLayers(f *fleet) (layerTimes, error) {
	var lt layerTimes
	cfg, err := streamConfig(f.wl.ants)
	if err != nil {
		return lt, err
	}
	s := f.walkerSeries(f.walkers[0].tmpl)
	w := int(math.Round(cfg.Core.WindowSeconds * rate))
	inc, err := trrs.NewIncrementalPrecision(rate, s.NumAnts, s.NumTx, w, cfg.Core.Precision)
	if err != nil {
		return lt, err
	}
	inc.SetKernel(cfg.Core.Kernel)
	arr := cfg.Core.Array
	groups, ring := pairGeometry(arr)
	var pairs []trrs.PairSpec
	seen := map[[2]int]bool{}
	add := func(p array.Pair) {
		if !seen[[2]int{p.I, p.J}] {
			seen[[2]int{p.I, p.J}] = true
			pairs = append(pairs, trrs.PairSpec{I: p.I, J: p.J})
		}
	}
	for _, g := range groups {
		for _, p := range g.Pairs {
			add(p)
		}
	}
	for _, p := range ring {
		add(p)
	}
	ants := make([]int, s.NumAnts)
	for a := range ants {
		ants[a] = a
	}
	pcfg := core.DefaultConfig(arr)
	pcfg.WindowSeconds = cfg.Core.WindowSeconds
	pcfg.Kernel = cfg.Core.Kernel
	pcfg.Precision = cfg.Core.Precision
	slow := pcfg.Movement
	fast := slow
	fast.SlowLagSeconds = 0

	hop := int(cfg.HopSeconds * rate)
	guard := int(math.Ceil(cfg.Core.WindowSeconds * rate))
	span := int(cfg.SpanSeconds * rate)
	snap := make([][][]complex128, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
	var arena trrs.MatrixArena
	pending, buffered := 0, 0
	for k := 0; k < f.frames && len(lt.process) < replayHops; k++ {
		for a := 0; a < s.NumAnts; a++ {
			for tx := 0; tx < s.NumTx; tx++ {
				snap[a][tx] = s.H[a][tx][k]
			}
		}
		t := time.Now()
		if err := inc.Append(snap); err != nil {
			return lt, err
		}
		lt.append = append(lt.append, time.Since(t))
		pending++
		buffered++
		if pending < hop || buffered < 2*guard {
			continue
		}
		pending = 0

		t = time.Now()
		ms, err := inc.ExtendMatrices(pairs)
		if err != nil {
			return lt, err
		}
		lt.extend = append(lt.extend, time.Since(t))
		base := map[[2]int]*trrs.Matrix{}
		for i, p := range pairs {
			base[[2]int{p.I, p.J}] = ms[i]
		}

		arena.Reset()
		t = time.Now()
		for _, g := range groups {
			var gm []*trrs.Matrix
			for _, p := range g.Pairs {
				gm = append(gm, base[[2]int{p.I, p.J}])
			}
			avg, err := trrs.AverageMatricesInto(&arena, gm...)
			if err != nil {
				return lt, err
			}
			if _, err := trrs.VirtualMassiveInto(&arena, avg, pcfg.V); err != nil {
				return lt, err
			}
		}
		for _, p := range ring {
			if _, err := trrs.VirtualMassiveInto(&arena, base[[2]int{p.I, p.J}], pcfg.V); err != nil {
				return lt, err
			}
		}
		lt.derived = append(lt.derived, time.Since(t))

		eng, err := inc.EngineView(ants)
		if err != nil {
			return lt, err
		}
		t = time.Now()
		align.MovementIndicator(eng, slow)
		align.MovementIndicator(eng, fast)
		lt.movement = append(lt.movement, time.Since(t))

		p, err := core.NewPipeline(spanSeries(s, k+1-buffered, k+1), pcfg)
		if err != nil {
			return lt, err
		}
		t = time.Now()
		p.Process()
		lt.process = append(lt.process, time.Since(t))

		if buffered > span {
			inc.DropFront(buffered - span)
			buffered = span
		}
	}
	return lt, nil
}

// pairGeometry is the pipeline's pair structure for an array: the
// parallel-isometric groups and, for rings of four or more antennas, the
// adjacent pairs (the same derivation core uses).
func pairGeometry(arr *array.Array) ([]array.ParallelGroup, []array.Pair) {
	groups := arr.ParallelGroups(geom.Rad(2), 1e-6)
	var ring []array.Pair
	if arr.NumAntennas() >= 4 {
		ring = arr.AdjacentRing()
	}
	return groups, ring
}

// spanSeries is slots [lo, hi) of s.
func spanSeries(s *csi.Series, lo, hi int) *csi.Series {
	out := &csi.Series{
		Rate: s.Rate, NumAnts: s.NumAnts, NumTx: s.NumTx, NumSub: s.NumSub,
		H:       make([][][][]complex128, s.NumAnts),
		Missing: make([][]bool, s.NumAnts),
	}
	for a := 0; a < s.NumAnts; a++ {
		out.H[a] = make([][][]complex128, s.NumTx)
		for tx := 0; tx < s.NumTx; tx++ {
			out.H[a][tx] = s.H[a][tx][lo:hi]
		}
		out.Missing[a] = s.Missing[a][lo:hi]
	}
	return out
}

// fusionStepTimes runs an ESKF over the estimates walker 0's session
// emitted, converting them the way the session fuser does, and returns
// the mean Step time of each emitted batch. The filter is configured as
// the fused daemon configures a session's backend: metrics into an obs
// registry, events into a trace recorder, and innovations and particle
// stats into the session's quality monitor.
func fusionStepTimes(r *walkerRec) ([]time.Duration, error) {
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(0)
	mon := quality.New(quality.Config{Obs: reg, Trace: rec}).Monitor(r.w.id)
	fc := fusion.DefaultConfig(1)
	fc.Backend, _ = fusion.ParseBackend("eskf")
	fc.StepSeconds = 1 / rate
	fc.Obs, fc.Trace = reg, rec
	fc.Innovations = func(ch int, nu, sVar float64) {
		mon.Innovation(ch, fusion.ChannelName(ch), nu, sVar)
	}
	fc.PFStats = mon.PFStep
	f, err := fusion.New(nil, geom.Pose{}, fc)
	if err != nil {
		return nil, err
	}
	dt := 1 / rate
	var theta, course float64
	var out []time.Duration
	inputs := make([]fusion.Input, 0, 64)
	for _, b := range r.batches {
		inputs = inputs[:0]
		for _, e := range r.ests[b.lo : b.lo+b.n] {
			theta = geom.NormalizeAngle(theta + e.AngVel*dt)
			in := fusion.Input{ZUPT: !e.Moving && !e.Degraded}
			switch {
			case !e.Moving:
				in.Quality = 1
			case e.Confidence > 0:
				in.Quality = e.Confidence
			default:
				in.Quality = 0.5
			}
			if e.Degraded && in.Quality > 0.3 {
				in.Quality = 0.3
			}
			if e.Moving && e.Kind == core.MotionTranslate && !math.IsNaN(e.HeadingBody) {
				c := geom.NormalizeAngle(theta + e.HeadingBody)
				in.DistDelta = e.Speed * dt
				in.ThetaDelta = geom.NormalizeAngle(c - course)
				course = c
			}
			inputs = append(inputs, in)
		}
		if len(inputs) == 0 {
			continue
		}
		t := time.Now()
		for _, in := range inputs {
			f.Step(in)
		}
		out = append(out, time.Since(t)/time.Duration(len(inputs)))
	}
	return out, nil
}
