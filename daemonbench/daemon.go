package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rim/internal/core"
	"rim/internal/fusion"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/slo"
	"rim/internal/obs/trace"
	"rim/internal/session"
	"rim/internal/trrs"
)

// served holds the rimserved flag defaults this harness copies. The drift
// guard (driftGuard) compares them against `rimserved -h` on every run;
// the copy goes away once the daemon's server is importable.
var served = struct {
	span, hop, window float64
	queue             int
	policy            string
	shards            int
	kernel, precision string
	quality           bool
	sloLagLE          float64
}{
	span: 3, hop: 0.5, window: 0.3,
	queue: 64, policy: "degrade", shards: 8,
	kernel: "", precision: "",
	quality: true, sloLagLE: 1.0,
}

// streamConfig is the per-session stream configuration rimserved builds
// from its defaults, without the observability handles (which never
// change estimates). The offline correctness replay uses it as is.
func streamConfig(ants int) (core.StreamConfig, error) {
	kernel, err := trrs.ParseKernel(served.kernel)
	if err != nil {
		return core.StreamConfig{}, err
	}
	prec, err := trrs.ParsePrecision(served.precision)
	if err != nil {
		return core.StreamConfig{}, err
	}
	arr, err := arrayForAnts(ants)
	if err != nil {
		return core.StreamConfig{}, err
	}
	return core.StreamConfig{
		Core: core.Config{
			Array:         arr,
			WindowSeconds: served.window,
			Kernel:        kernel,
			Precision:     prec,
		},
		SpanSeconds: served.span,
		HopSeconds:  served.hop,
	}, nil
}

// walkerRec is everything the daemon side records about one session. The
// estimate and timing slices are written only by the session's worker
// goroutine (Emit and the stream wrapper run there) and read after the
// session has closed.
type walkerRec struct {
	w       walker
	first   atomic.Bool  // first frame accepted
	emitted atomic.Int64 // estimates emitted so far

	ests    []core.Estimate
	batches []batch

	// Traced runs only.
	ingestRet  chan int64 // Registry.Ingest return times, FIFO per session
	lastReturn int64      // PushMaskedCtx return time of the latest push
	queueWait  []time.Duration
	push, hop  []time.Duration // PushMaskedCtx calls without / with a hop
	emit       []time.Duration // PushMaskedCtx return → Emit callback
}

// batch is one Emit call.
type batch struct {
	emitNs int64 // wall clock at the Emit callback
	lo, n  int   // range in walkerRec.ests
	flush  bool  // emitted by the close-time Flush
}

// connStats is one serve loop's traced timings.
type connStats struct {
	decode, ingest []time.Duration
}

// daemon is an in-process rimserved: the same registry, stream factory,
// obs registry, trace recorder, flight recorders, quality engine, fleet
// SLO objectives and runtime sampler, behind a TCP listener whose serve
// loop mirrors rimserved's. The per-session SLO objectives and the debug
// HTTP server only read daemon state and are left out.
type daemon struct {
	registry *session.Registry
	metrics  *session.Metrics
	ln       net.Listener
	traced   bool
	walkers  map[string]*walkerRec
	closing  atomic.Bool // set before the generator closes the sessions

	firstLeft atomic.Int64
	allFirst  chan struct{} // closed once every walker's first frame is accepted

	decoded, accepted, unknown, rejected atomic.Int64

	connMu sync.Mutex
	conns  []*connStats
	connWg sync.WaitGroup
	stop   func()
	once   sync.Once
}

// startDaemon assembles and starts the daemon. walkers names the sessions
// the daemon will see; traced wraps every stream in a timing wrapper and
// times the serve loop's decode and ingest calls.
func startDaemon(wl workload, walkers map[string]*walkerRec, traced bool) (_ *daemon, err error) {
	d := &daemon{traced: traced, walkers: walkers, allFirst: make(chan struct{})}
	d.firstLeft.Store(int64(len(walkers)))
	// Listen before anything starts a goroutine, so a failure leaks none.
	if d.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.ln.Close()
		}
	}()

	scfg, err := streamConfig(wl.ants)
	if err != nil {
		return nil, err
	}
	policy, ok := session.ParsePolicy(served.policy)
	if !ok {
		return nil, fmt.Errorf("unknown policy %q", served.policy)
	}
	var fusionCfg *fusion.Config
	if wl.eskf {
		fc := fusion.DefaultConfig(1)
		fc.Backend, _ = fusion.ParseBackend("eskf")
		fusionCfg = &fc
	}

	log := obs.NewTextLogger(io.Discard, slog.LevelInfo)
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(0)
	if fusionCfg != nil {
		fusionCfg.Obs = reg
		fusionCfg.Trace = rec
	}
	breaker := session.NewBreaker(session.BreakerConfig{})
	var registry *session.Registry
	health := func() any {
		if registry == nil {
			return nil
		}
		return registry.Health()
	}
	flight := trace.NewFlight(trace.FlightConfig{Recorder: rec, Registry: reg, Health: health, Log: log})
	quarantineFlight := trace.NewFlight(trace.FlightConfig{
		Recorder: rec, Registry: reg, Health: health, Log: log,
		Trigger: func(reason string) bool { return reason == trace.ReasonSessionQuarantined },
	})
	var qualityEng *quality.Engine
	if served.quality {
		qualityEng = quality.New(quality.Config{
			Obs:   reg,
			Trace: rec,
			Flight: trace.NewFlight(trace.FlightConfig{
				Recorder: rec, Registry: reg, Health: health, Log: log,
				Trigger: func(reason string) bool { return reason == trace.ReasonQualityBreach },
			}),
			OnTransition: func(entity string, from, to quality.State, channel string, frac float64) {
				log.Warn("estimator quality transition", "session", entity,
					"from", from.String(), "to", to.String(),
					"channel", channel, "outside_frac", frac)
			},
		})
	}

	scfg.Core.Obs = reg
	scfg.Core.Trace = rec
	scfg.Core.Flight = flight
	scfg.Core.Quality = qualityEng
	scfg.Core.Logger = log
	scfg.Core.Array = nil // the factory picks it per session
	factory, err := session.NewCoreFactory(session.CoreFactoryConfig{
		Template: scfg,
		ArrayFor: arrayForAnts,
	})
	if err != nil {
		return nil, err
	}
	if traced {
		inner := factory
		factory = func(id string, spec session.Spec, cp *core.StreamCheckpoint) (session.Stream, error) {
			s, err := inner(id, spec, cp)
			if err != nil {
				return nil, err
			}
			return &timedStream{Stream: s, rec: walkers[id]}, nil
		}
	}
	metrics := session.NewMetricsCap(reg, 0)
	registry, err = session.NewRegistry(session.RegistryConfig{
		Shards:  served.shards,
		Breaker: breaker,
		Log:     log,
		Session: session.Config{
			Factory: factory,
			Queue:   served.queue,
			Policy:  policy,
			Metrics: metrics,
			Flight:  quarantineFlight,
			Log:     log,
			Fusion:  fusionCfg,
			Quality: qualityEng,
			Emit:    d.emit,
		},
	})
	if err != nil {
		return nil, err
	}
	d.registry = registry
	d.metrics = metrics

	sloEng := slo.New(slo.Config{Obs: reg})
	window := 5 * time.Minute
	sloEng.Register(slo.Objective{
		Name: "fleet/lag", Entity: "fleet", Target: 0.99, Window: window,
		Source: slo.LatencySource(reg.Timer("rim_stream_lag_seconds",
			"ingest-to-emit latency of the newest slot finalized per hop"), served.sloLagLE),
	})
	sloEng.Register(slo.Objective{
		Name: "fleet/degraded", Entity: "fleet", Target: 0.95, Window: window,
		Source: func() slo.Sample {
			t := float64(metrics.Estimates.Total())
			return slo.Sample{Good: t - float64(metrics.EstDegraded.Total()), Total: t}
		},
	})
	stopRuntime := obs.NewRuntimeSampler(reg).Start(10 * time.Second)
	sloStop := make(chan struct{})
	sloDone := make(chan struct{})
	go func() {
		defer close(sloDone)
		t := time.NewTicker(5 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-sloStop:
				return
			case now := <-t.C:
				sloEng.Tick(now)
			}
		}
	}()

	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := d.ln.Accept()
			if err != nil {
				return
			}
			cs := &connStats{}
			d.connMu.Lock()
			d.conns = append(d.conns, cs)
			d.connMu.Unlock()
			d.connWg.Add(1)
			go func() {
				defer d.connWg.Done()
				defer conn.Close()
				d.serveConn(conn, cs)
			}()
		}
	}()
	d.stop = func() {
		d.ln.Close()
		<-acceptDone
		d.connWg.Wait()
		registry.Shutdown()
		close(sloStop)
		<-sloDone
		stopRuntime()
	}
	return d, nil
}

func (d *daemon) addr() string { return d.ln.Addr().String() }

// shutdown stops accepting, waits for every connection to end, then
// drains and closes the remaining sessions.
func (d *daemon) shutdown() { d.once.Do(d.stop) }

// emit is the session.Config.Emit callback: it timestamps every batch.
func (d *daemon) emit(id string, ests []core.Estimate) {
	now := time.Now().UnixNano()
	r := d.walkers[id]
	if r == nil {
		return
	}
	closing := d.closing.Load()
	if d.traced && !closing {
		r.emit = append(r.emit, time.Duration(now-r.lastReturn))
	}
	r.batches = append(r.batches, batch{emitNs: now, lo: len(r.ests), n: len(ests), flush: closing})
	r.ests = append(r.ests, ests...)
	r.emitted.Add(int64(len(ests)))
}

// serveConn mirrors rimserved's serve loop: preamble, then opens, frames
// and closes routed into the registry. It counts every ingest outcome for
// the reconciliation.
func (d *daemon) serveConn(conn net.Conn, cs *connStats) {
	if err := session.ReadWirePreamble(conn); err != nil {
		return
	}
	var wait *waitReader
	var wr *session.WireReader
	if d.traced {
		wait = &waitReader{r: conn}
		wr = session.NewWireReader(wait)
	} else {
		wr = session.NewWireReader(conn)
	}
	for {
		var start time.Time
		var waited0 time.Duration
		if d.traced {
			start, waited0 = time.Now(), wait.waited
		}
		msg, err := wr.Read()
		if err != nil {
			return
		}
		switch msg.Type {
		case session.MsgOpen:
			// A refused open needs no handling here: the session's frames
			// then fail as unknown and count as shed.
			_, _ = d.registry.Open(msg.ID, msg.Spec)
		case session.MsgFrame:
			d.decoded.Add(1)
			var ingStart time.Time
			if d.traced {
				ingStart = time.Now()
				// Decode time excludes the time Read spent blocked on the
				// socket waiting for the next tick's bytes.
				cs.decode = append(cs.decode, ingStart.Sub(start)-(wait.waited-waited0))
			}
			err := d.registry.Ingest(msg.ID, msg.Snap, msg.Missing)
			r := d.walkers[msg.ID]
			if d.traced {
				ret := time.Now()
				cs.ingest = append(cs.ingest, ret.Sub(ingStart))
				if err == nil && r != nil && r.ingestRet != nil {
					r.ingestRet <- ret.UnixNano()
				}
			}
			switch {
			case err == nil:
				d.accepted.Add(1)
				if r != nil && r.first.CompareAndSwap(false, true) && d.firstLeft.Add(-1) == 0 {
					close(d.allFirst)
				}
			case errors.Is(err, session.ErrUnknownSession):
				d.unknown.Add(1)
			default:
				d.rejected.Add(1)
			}
		case session.MsgClose:
			// Closing an unknown (shed) session fails harmlessly.
			_ = d.registry.Close(msg.ID)
		}
	}
}

// waitReader accumulates the time its reader spends blocked in Read.
type waitReader struct {
	r      io.Reader
	waited time.Duration
}

func (w *waitReader) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := w.r.Read(p)
	w.waited += time.Since(t)
	return n, err
}

// timedStream times every PushMaskedCtx call of one session's stream. It
// forwards the optional degrade and per-session metric hooks, without
// which the registry would silently disable both.
type timedStream struct {
	session.Stream
	rec *walkerRec
}

func (t *timedStream) PushMaskedCtx(ctx context.Context, snap [][][]complex128, missing []bool) ([]core.Estimate, error) {
	entry := time.Now()
	if ing := <-t.rec.ingestRet; entry.UnixNano() > ing {
		t.rec.queueWait = append(t.rec.queueWait, time.Duration(entry.UnixNano()-ing))
	} else {
		t.rec.queueWait = append(t.rec.queueWait, 0)
	}
	ests, err := t.Stream.PushMaskedCtx(ctx, snap, missing)
	ret := time.Now()
	if len(ests) > 0 {
		t.rec.hop = append(t.rec.hop, ret.Sub(entry))
	} else {
		t.rec.push = append(t.rec.push, ret.Sub(entry))
	}
	t.rec.lastReturn = ret.UnixNano()
	return ests, err
}

func (t *timedStream) SetHopFactor(f int) {
	if hs, ok := t.Stream.(interface{ SetHopFactor(int) }); ok {
		hs.SetHopFactor(f)
	}
}

func (t *timedStream) SetPerStreamObs(po core.PerStreamObs) {
	if ps, ok := t.Stream.(interface{ SetPerStreamObs(core.PerStreamObs) }); ok {
		ps.SetPerStreamObs(po)
	}
}
