// Command daemonbench is the end-to-end benchmark of the RIM tracking
// daemon. It assembles a rimserved-equivalent daemon in-process from the
// public session/core API with rimserved's flag defaults, drives it over
// loopback TCP from a separate open-loop walker generator process, and
// reports what a user of the daemon sees: walkers served per CPU core,
// arrival-to-estimate lag, the on-time fraction, live heap and set-up
// CPU time. With --trace 1 it instead reports the per-layer split from a
// run with timing wrappers around the calls into each layer, plus a side
// replay of one walker through the TRRS, align, core and fusion layers,
// the hop delay percentiles and the distance error.
//
// Every run checks its outputs: each estimate the daemon emitted must
// equal an offline core.StreamSeries replay of the walker's frames, the
// frame and estimate counts must reconcile, and the harness's copy of
// rimserved's flag defaults must match `rimserved -h`. Any failure makes
// the run exit non-zero.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash daemonbench/run.sh --workload fleet-pair-walk --seed 1 --seconds 20 --trace 0
//
// The default seed is 1; seed 7 is held out for confirming later
// performance claims. --walker-scale 2 doubles a workload's walkers, the
// capacity linearity check.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rim/internal/core"
	"rim/internal/session"
)

// warmSeconds of traffic precede the measured window so every session's
// analysis span is full before CPU time is counted.
const warmSeconds = 3.5

// setupReps is how many times a run assembles the daemon and opens the
// fleet to measure set-up time.
const setupReps = 11

// capacityLoopSeconds is the interval capacity is measured over: one walk
// loop, or one still-then-step half of the idle loop, so every interval
// carries the same work.
const capacityLoopSeconds = 4.0

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	rimserved string
	role      string
	scale     int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "fleet-pair-walk", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (1 is the default, 7 is held out)")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window, seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = per-layer run with timing wrappers")
	flag.StringVar(&o.rimserved, "rimserved", "", "rimserved binary whose -h the drift guard reads")
	flag.StringVar(&o.role, "role", "bench", "bench, or gen for the generator process")
	flag.IntVar(&o.scale, "walker-scale", 1, "multiply the workload's walker count")
	flag.Parse()

	wl, err := findWorkload(o.workload)
	if err == nil && o.scale > 1 {
		wl.walkers *= o.scale
	}
	if err == nil && o.role == "gen" {
		var f *fleet
		if f, err = newFleet(wl, o.seed, warmSeconds+o.seconds); err == nil {
			err = runGenerator(f)
		}
	} else if err == nil {
		err = runBench(wl, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// generator is the handle on the generator process.
type generator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startGenerator(o options) (*generator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--role", "gen", "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--walker-scale", strconv.Itoa(o.scale))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &generator{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

func (g *generator) send(line string) error {
	_, err := io.WriteString(g.in, line+"\n")
	return err
}

func (g *generator) expect(prefix string) (string, error) {
	if !g.out.Scan() {
		return "", fmt.Errorf("generator exited before %q", prefix)
	}
	line := g.out.Text()
	if !strings.HasPrefix(line, prefix) {
		return "", fmt.Errorf("generator said %q, want %q", line, prefix)
	}
	return line, nil
}

// stop ends the generator process and waits for it.
func (g *generator) stop() error {
	g.in.Close()
	done := make(chan error, 1)
	go func() { done <- g.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		g.cmd.Process.Kill()
		<-done
		return errors.New("generator did not exit")
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for a valid buffer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var runtimeSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:bytes"}

func readRuntime() (gcCPU, allocBytes float64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Float64(), float64(s[1].Value.Uint64())
}

// heapLive is the live heap after a forced collection. The second GC also
// empties the sync.Pool victim caches the first one only demotes.
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func runBench(wl workload, o options) error {
	if o.rimserved == "" {
		return errors.New("--rimserved is required (use run.sh)")
	}
	if err := driftGuard(o.rimserved); err != nil {
		return err
	}
	gen, err := startGenerator(o)
	if err != nil {
		return err
	}
	res, err := bench(wl, o, gen)
	if stopErr := gen.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("generator: %w", stopErr)
	}
	if err != nil {
		return err
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

func bench(wl workload, o options, gen *generator) (_ *result, err error) {
	f, err := newFleet(wl, o.seed, warmSeconds+o.seconds)
	if err != nil {
		return nil, err
	}
	if _, err := gen.expect("ready"); err != nil {
		return nil, err
	}

	setup, err := measureSetup(f)
	if err != nil {
		return nil, err
	}

	// Everything the harness keeps during the run is allocated before the
	// heap baseline, so heap_live_mb counts only the daemon.
	traced := o.trace == 1
	recs := map[string]*walkerRec{}
	for _, w := range f.walkers {
		r := &walkerRec{w: w, ests: make([]core.Estimate, 0, f.frames), batches: make([]batch, 0, f.frames/10)}
		if traced {
			// Room for every frame the session can be sent, so the serve
			// loop never blocks on it.
			r.ingestRet = make(chan int64, f.frames+served.queue)
			r.queueWait = make([]time.Duration, 0, f.frames)
			r.push = make([]time.Duration, 0, f.frames)
			r.hop = make([]time.Duration, 0, f.frames/10)
			r.emit = make([]time.Duration, 0, f.frames/10)
		}
		recs[w.id] = r
	}
	heap0 := heapLive()

	d, err := startDaemon(wl, recs, traced)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			// The generator may still hold its connections open.
			gen.cmd.Process.Kill()
		}
		d.shutdown()
	}()
	if err := gen.send("go " + d.addr()); err != nil {
		return nil, err
	}
	line, err := gen.expect("t0 ")
	if err != nil {
		return nil, err
	}
	t0ns, err := strconv.ParseInt(strings.TrimPrefix(line, "t0 "), 10, 64)
	if err != nil {
		return nil, err
	}

	// The measured window opens after the warm-up.
	warmTicks := int(warmSeconds * rate)
	time.Sleep(time.Until(time.Unix(0, t0ns+int64(warmTicks)*int64(tick))))
	cpu0 := cpuSeconds()
	gc0, alloc0 := readRuntime()
	// Capacity is the median over whole template loops inside the window,
	// while every walker is sending: one interference burst then moves one
	// interval, not the reported figure.
	var loopCaps []float64
	loopTicks := int(capacityLoopSeconds * rate)
	prev := cpu0
	for end := warmTicks + loopTicks; end <= f.frames; end += loopTicks {
		time.Sleep(time.Until(time.Unix(0, t0ns+int64(end)*int64(tick))))
		now := cpuSeconds()
		loopCaps = append(loopCaps, float64(len(f.walkers))*capacityLoopSeconds/(now-prev))
		prev = now
	}

	line, err = gen.expect("done ")
	if err != nil {
		return nil, err
	}
	gr, err := parseDone(line)
	if err != nil {
		return nil, err
	}
	// Wait for the last regular hop of every session.
	want := int64(regularEmits(f.frames))
	drained := true
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range recs {
		for r.emitted.Load() < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		drained = drained && r.emitted.Load() >= want
	}
	cpu1 := cpuSeconds()
	gc1, alloc1 := readRuntime()
	heap1 := heapLive()

	d.closing.Store(true)
	if err := gen.send("close"); err != nil {
		return nil, err
	}
	d.shutdown()

	// Walker-seconds of CSI in the measured window: frames due at or after
	// its start.
	var windowFrames int
	for _, w := range f.walkers {
		first := warmTicks - w.offset
		if first < 0 {
			first = 0
		}
		if first < f.frames {
			windowFrames += f.frames - first
		}
	}
	walkerSeconds := float64(windowFrames) / rate
	cpu := cpu1 - cpu0
	capacity := walkerSeconds / cpu
	if len(loopCaps) > 0 {
		capacity = median(loopCaps)
	}

	// Correctness: every walker's estimates against the offline replay.
	ref, err := referenceEstimates(f)
	if err != nil {
		return nil, err
	}
	var bad int
	var estDist, trueDist float64
	for _, w := range f.walkers {
		r := recs[w.id]
		bad += mismatches(r.ests, ref[w.tmpl])
		trueDist += f.trueDistance(w.tmpl)
		for _, e := range r.ests {
			if e.Moving && e.Kind == core.MotionTranslate {
				estDist += e.Speed / rate
			}
		}
	}

	// Reconciliation.
	sent := gr.sent
	dropped := int(d.metrics.Dropped.Total())
	degradedHops := int(d.metrics.Degraded.Total())
	shed := int(d.unknown.Load())
	rejected := int(d.rejected.Load())
	accepted := int(d.accepted.Load()) - dropped
	var emitted int
	for _, r := range recs {
		emitted += len(r.ests)
	}
	reconciled := int(d.decoded.Load()) == sent &&
		sent == accepted+shed+rejected+dropped &&
		emitted == accepted
	fmt.Fprintf(os.Stderr, "daemonbench: %s seed %d: frames sent %d = accepted %d + shed %d + rejected %d + dropped %d; slots emitted %d (reconciled %v)\n",
		wl.name, o.seed, sent, accepted, shed, rejected, dropped, emitted, reconciled)

	// Latency: every regular-hop slot from its frame's due time.
	guard := int(math.Ceil(served.window * rate))
	var lags, hopDelays []float64
	var okSlots, flushSlots int
	for _, r := range recs {
		for _, b := range r.batches {
			if b.flush {
				flushSlots += b.n
				continue
			}
			for _, e := range r.ests[b.lo : b.lo+b.n] {
				slot := int(math.Round(e.T * rate))
				lag := float64(b.emitNs-dueNs(t0ns, r.w, slot)) / 1e9
				lags = append(lags, lag)
				if !e.Degraded && lag <= served.sloLagLE {
					okSlots++
				}
			}
			last := r.ests[b.lo+b.n-1]
			hopFrame := int(math.Round(last.T*rate)) + guard
			hopDelays = append(hopDelays, float64(b.emitNs-dueNs(t0ns, r.w, hopFrame))/1e6)
		}
	}
	lagQ := quantiles(lags, 0.5, 0.99)
	hopQ := quantiles(hopDelays, 0.5, 0.75, 0.9)

	failed := bad + shed + rejected + dropped + degradedHops
	if !reconciled || !drained {
		failed++
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: sent,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "daemonbench: %d estimates differ from the offline replay\n", bad)
	}
	if !drained {
		fmt.Fprintln(os.Stderr, "daemonbench: sessions did not finish their regular hops")
	}
	e2e := map[string]metric{
		"capacity_walkers_per_core": {capacity, "walkers/core"},
		"lag_p50_s":                 {lagQ[0], "s"},
		"lag_p99_s":                 {lagQ[1], "s"},
		"ok_frac":                   {float64(okSlots) / float64(sent-flushSlots), "frac"},
		"heap_live_mb":              {(heap1 - heap0) / 1e6, "MB"},
		"setup_s":                   {setup, "s"},
	}
	fmt.Fprintf(os.Stderr, "daemonbench: %s seed %d: %d walkers, %.1f walker-s over %.2f CPU-s, %d lag samples, %d hops (delay p50 %.2f ms), generator late p90 %.3f ms\n",
		wl.name, o.seed, len(f.walkers), walkerSeconds, cpu, len(lags), len(hopDelays), hopQ[0], gr.lateP90.Seconds()*1e3)
	if !traced {
		res.Metrics = e2e
		logMetrics(res.Metrics)
		return res, nil
	}

	// Traced run: the per-layer split.
	lt, err := replayLayers(f)
	if err != nil {
		return nil, err
	}
	var decode, ingest []time.Duration
	for _, cs := range d.conns {
		decode = append(decode, cs.decode...)
		ingest = append(ingest, cs.ingest...)
	}
	var queueWait, push, hop, emit []time.Duration
	for _, r := range recs {
		queueWait = append(queueWait, r.queueWait...)
		push = append(push, r.push...)
		hop = append(hop, r.hop...)
		emit = append(emit, r.emit...)
	}
	perFrame := sum(decode) + sum(ingest) + sum(push)
	busy := sum(push) + sum(hop)
	perWalkerS := func(d time.Duration) float64 { return d.Seconds() * 1e3 / (float64(sent) / rate) }
	// cpuShare is the wall time of a set of timed calls per walker-second
	// of the whole run, as a share of the daemon's CPU time per
	// walker-second of the measured window. Wall time inside a call also
	// counts any wait for a core, so the shares can sum past 1.
	cpuShare := func(d time.Duration) float64 {
		return perWalkerS(d) / (cpu * 1e3 / walkerSeconds)
	}
	fmt.Fprintf(os.Stderr, "daemonbench: %s seed %d: ms per walker-second: CPU %.3f, wire decode %.3f, ingest %.3f, push %.3f, hop %.3f, emit %.3f\n",
		wl.name, o.seed, cpu*1e3/walkerSeconds, perWalkerS(sum(decode)), perWalkerS(sum(ingest)),
		perWalkerS(sum(push)), perWalkerS(sum(hop)), perWalkerS(sum(emit)))
	fusionStep, err := fusionStepTimes(recs[f.walkers[0].id])
	if err != nil {
		return nil, err
	}
	runWall := float64(f.lastTick()+1) / rate
	hopMs := durQuantile(hop, 0.5, time.Millisecond)
	appendUs := durQuantile(lt.append, 0.5, time.Microsecond)
	extendMs := durQuantile(lt.extend, 0.5, time.Millisecond)
	derivedMs := durQuantile(lt.derived, 0.5, time.Millisecond)
	processMs := durQuantile(lt.process, 0.5, time.Millisecond)
	// A hop runs one Append, for the frame that completes it; the other
	// frames' Appends are in core.push_us.
	replayed := appendUs/1e3 + extendMs + derivedMs + processMs
	pl := map[string]metric{
		"session.wire_decode_us_p50":    {durQuantile(decode, 0.5, time.Microsecond), "us"},
		"session.ingest_us_p50":         {durQuantile(ingest, 0.5, time.Microsecond), "us"},
		"session.queue_wait_ms_p50":     {durQuantile(queueWait, 0.5, time.Millisecond), "ms"},
		"session.queue_wait_ms_p90":     {durQuantile(queueWait, 0.9, time.Millisecond), "ms"},
		"session.emit_us_p50":           {durQuantile(emit, 0.5, time.Microsecond), "us"},
		"session.shed":                  {float64(shed), "count"},
		"session.rejected":              {float64(rejected), "count"},
		"session.dropped":               {float64(dropped), "count"},
		"session.degraded_hops":         {float64(degradedHops), "count"},
		"core.push_us_p50":              {durQuantile(push, 0.5, time.Microsecond), "us"},
		"core.hop_ms_p50":               {hopMs, "ms"},
		"core.hop_ms_p90":               {durQuantile(hop, 0.9, time.Millisecond), "ms"},
		"core.busy_frac":                {busy.Seconds() / (runWall * float64(runtime.GOMAXPROCS(0))), "frac"},
		"trrs.append_us_p50":            {appendUs, "us"},
		"trrs.extend_ms_p50":            {extendMs, "ms"},
		"trrs.derived_ms_p50":           {derivedMs, "ms"},
		"align.movement_ms_p50":         {durQuantile(lt.movement, 0.5, time.Millisecond), "ms"},
		"core.process_ms_p50":           {processMs, "ms"},
		"fusion.step_us_p50":            {durQuantile(fusionStep, 0.5, time.Microsecond), "us"},
		"core.hop_unattributed_frac":    {1 - replayed/hopMs, "frac"},
		"share.per_frame_frac":          {cpuShare(perFrame), "frac"},
		"share.hop_frac":                {cpuShare(sum(hop)), "frac"},
		"share.emit_frac":               {cpuShare(sum(emit)), "frac"},
		"runtime.gc_cpu_frac":           {(gc1 - gc0) / cpu, "frac"},
		"runtime.alloc_mb_per_walker_s": {(alloc1 - alloc0) / 1e6 / walkerSeconds, "MB/walker-s"},
		"gen.late_ms_p90":               {gr.lateP90.Seconds() * 1e3, "ms"},
		"accuracy.distance_err_pct":     {100 * math.Abs(estDist-trueDist) / trueDist, "%"},
		"recon.frames_sent":             {float64(sent), "count"},
		"recon.frames_accepted":         {float64(accepted), "count"},
		"recon.slots_emitted":           {float64(emitted), "count"},
	}
	for _, name := range []string{"capacity_walkers_per_core", "lag_p50_s", "lag_p99_s"} {
		pl["traced."+name] = e2e[name]
	}
	pl["traced.hop_delay_p50_ms"] = metric{hopQ[0], "ms"}
	pl["traced.hop_delay_p75_ms"] = metric{hopQ[1], "ms"}
	pl["traced.hop_delay_p90_ms"] = metric{hopQ[2], "ms"}
	res.Metrics = pl
	logMetrics(res.Metrics)
	return res, nil
}

// dueNs is when walker w's frame k was due.
func dueNs(t0ns int64, w walker, k int) int64 {
	return t0ns + int64(w.offset+k)*int64(tick)
}

func logMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %12.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// measureSetup assembles the daemon setupReps times and returns the
// median CPU time the process spends from the start of assembly until
// every session is open and has accepted its first frame. CPU time, not
// wall time: it counts the set-up work wherever it runs and is blind to
// time a hypervisor steals from its guest, which on a shared machine moves
// millisecond wall times by tens of percent. Every assembly starts from
// memory returned to the OS, as a freshly started daemon does; reusing
// the previous assembly's pages or not would otherwise split the reps
// into a fast and a slow mode. An in-process client sends the opens and
// first frames, encoded before the clock starts.
func measureSetup(f *fleet) (float64, error) {
	payload, err := setupPayload(f)
	if err != nil {
		return 0, err
	}
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		recs := map[string]*walkerRec{}
		for _, w := range f.walkers {
			recs[w.id] = &walkerRec{w: w}
		}
		debug.FreeOSMemory()
		start := cpuSeconds()
		d, err := startDaemon(f.wl, recs, false)
		if err != nil {
			return 0, err
		}
		conn, err := net.Dial("tcp", d.addr())
		if err == nil {
			_, err = conn.Write(payload)
		}
		if err == nil {
			select {
			case <-d.allFirst:
			case <-time.After(10 * time.Second):
				err = errors.New("set-up: sessions did not accept their first frame")
			}
		}
		used := cpuSeconds() - start
		if conn != nil {
			conn.Close()
		}
		d.shutdown()
		if err != nil {
			return 0, err
		}
		times = append(times, used)
	}
	return median(times), nil
}

// setupPayload is the set-up client's whole conversation: preamble, every
// walker's open, then every walker's first frame.
func setupPayload(f *fleet) ([]byte, error) {
	var buf bytes.Buffer
	if err := session.WriteWirePreamble(&buf); err != nil {
		return nil, err
	}
	for _, w := range f.walkers {
		if err := session.WriteOpen(&buf, w.id, specOf(f.templates[w.tmpl].series)); err != nil {
			return nil, err
		}
	}
	for _, w := range f.walkers {
		s := f.templates[w.tmpl].series
		snap := make([][][]complex128, s.NumAnts)
		for a := range snap {
			snap[a] = make([][]complex128, s.NumTx)
		}
		missing := make([]bool, s.NumAnts)
		f.frameRows(w, 0, snap, missing)
		if err := session.WriteFrame(&buf, w.id, snap, missing); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}
