// Package loadgen drives a rimserved daemon with simulated walkers: it
// synthesizes a clean walk and a faulty walk (bursty loss plus dead RF
// chains, via internal/rf + internal/faults) once, then replays them over
// the wire protocol as many concurrent sessions striped across a few
// connections, the first FaultFrac of them getting the faulty CSI, which
// flaps their analysis into the daemon's restart/quarantine machinery.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/experiments"
	"rim/internal/faults"
	"rim/internal/geom"
	"rim/internal/rf"
	"rim/internal/session"
	"rim/internal/traj"
)

// Config parameterizes Run; rimloadgen's flag of the same name documents
// each field.
type Config struct {
	Addr                 string
	Sessions, Conns      int
	Duration             time.Duration
	Rate, FPS, FaultFrac float64
	Seed                 int64
}

// Result is a run's producer-side outcome.
type Result struct {
	Faulty, Conns                int
	Frames, Reconnects, SendErrs int64
	Elapsed                      time.Duration
}

// template is one pre-generated walk, replayed by many sessions.
type template struct {
	series *csi.Series
	// deadFrom, when >= 0, is the frame count after which antennas 0 and 1
	// are reported missing on the wire, across replay wraps. With one live
	// antenna left every hop fails: the flapping that must end in quarantine.
	deadFrom int
}

// buildTemplate synthesizes one walker's CSI series. faulty layers bursty
// packet loss plus noise-only RF chains (faults.Dropout) on antennas 0 and
// 1 from mid-walk, which the replay also flags missing, the way a real
// producer reports a chain its NIC stopped delivering.
func buildTemplate(rate float64, seed int64, faulty bool) (*template, error) {
	cfg := rf.FastConfig()
	cfg.Seed = seed
	env := rf.NewEnvironment(cfg, geom.Vec2{}, geom.Vec2{X: 5}, nil)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 4}})
	b.Pause(0.5)
	b.MoveDir(0, 1.5, 0.5)
	b.Pause(0.5)
	tr := b.Build()

	rcv := csi.RealisticReceiver(seed)
	deadFrom := -1
	if faulty {
		fm := &faults.Model{Seed: seed}
		fm.Loss = faults.NewGilbertElliott(0.3, 15)
		fm.Dropouts = []faults.Dropout{{Antenna: 0, Start: 1.5}, {Antenna: 1, Start: 1.5}}
		rcv.Faults = fm
		deadFrom = int(1.5 * rate)
	}
	series, err := csi.Collect(env, array.NewLinear3(experiments.Spacing), tr, rcv).Process(true)
	if err != nil {
		return nil, err
	}
	return &template{series: series, deadFrom: deadFrom}, nil
}

// walker is one simulated session.
type walker struct {
	id   string
	tmpl *template
	slot int // replay cursor (wraps)
}

// Run replays cfg.Sessions walkers, named walker-0000 upward, against
// the daemon at cfg.Addr until cfg.Duration passes or ctx is done, then
// closes their sessions.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Sessions <= 0 || cfg.Conns <= 0 {
		return Result{}, errors.New("-sessions and -conns must be positive")
	}
	clean, err := buildTemplate(cfg.Rate, cfg.Seed, false)
	if err != nil {
		return Result{}, fmt.Errorf("clean template: %w", err)
	}
	faulty, err := buildTemplate(cfg.Rate, cfg.Seed+1, true)
	if err != nil {
		return Result{}, fmt.Errorf("faulty template: %w", err)
	}

	res := Result{Faulty: int(float64(cfg.Sessions) * cfg.FaultFrac), Conns: min(cfg.Conns, cfg.Sessions)}
	walkers := make([]*walker, cfg.Sessions)
	for i := range walkers {
		tmpl := clean
		if i < res.Faulty {
			tmpl = faulty
		}
		walkers[i] = &walker{id: fmt.Sprintf("walker-%04d", i), tmpl: tmpl}
	}

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	per := make([]Result, res.Conns) // each connection's counts
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range per {
		// Stripe walkers across connections.
		var mine []*walker
		for i := ci; i < len(walkers); i += res.Conns {
			mine = append(mine, walkers[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runConn(ctx, cfg.Addr, mine, cfg.FPS, &per[ci])
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	for _, p := range per {
		res.Frames, res.Reconnects, res.SendErrs = res.Frames+p.Frames, res.Reconnects+p.Reconnects, res.SendErrs+p.SendErrs
	}
	return res, nil
}

// runConn owns one connection's walkers: dial (with retry), open the
// sessions, interleave their frames until ctx ends, close them. Any
// write error tears the connection down and redials — sessions are
// re-opened (idempotent server-side) and replay continues from each
// walker's cursor, which is how the generator rides out a daemon
// kill/restart mid-run.
func runConn(ctx context.Context, addr string, walkers []*walker, fps float64, c *Result) {
	var conn net.Conn
	defer func() {
		if conn != nil {
			for _, w := range walkers {
				session.WriteClose(conn, w.id)
			}
			conn.Close()
		}
	}()

	dial := func() bool {
		if conn != nil {
			conn.Close()
			conn = nil
		}
		for {
			nc, err := (&net.Dialer{Timeout: time.Second}).DialContext(ctx, "tcp", addr)
			if err == nil {
				err = session.WriteWirePreamble(nc)
				for _, w := range walkers {
					if s := w.tmpl.series; err == nil {
						err = session.WriteOpen(nc, w.id, session.Spec{Rate: s.Rate, NumAnts: s.NumAnts, NumTx: s.NumTx, NumSub: s.NumSub})
					}
				}
				if err == nil {
					conn = nc
					return true
				}
				nc.Close()
			}
			select {
			case <-ctx.Done():
				return false
			case <-time.After(200 * time.Millisecond):
			}
		}
	}

	if !dial() {
		return
	}

	var tick *time.Ticker
	if fps > 0 {
		tick = time.NewTicker(time.Duration(float64(time.Second) / fps))
		defer tick.Stop()
	}
	for ctx.Err() == nil {
		for _, w := range walkers {
			s := w.tmpl.series
			t := w.slot % s.NumSlots()
			w.slot++
			frame := make([][][]complex128, s.NumAnts)
			missing := make([]bool, s.NumAnts)
			dead := w.tmpl.deadFrom >= 0 && w.slot > w.tmpl.deadFrom
			for a := 0; a < s.NumAnts; a++ {
				frame[a] = make([][]complex128, s.NumTx)
				for tx := 0; tx < s.NumTx; tx++ {
					frame[a][tx] = s.H[a][tx][t]
				}
				missing[a] = s.Missing != nil && a < len(s.Missing) && t < len(s.Missing[a]) && s.Missing[a][t]
				if dead && a < 2 {
					missing[a] = true
				}
			}
			if err := session.WriteFrame(conn, w.id, frame, missing); err != nil {
				c.SendErrs++
				c.Reconnects++
				if !dial() {
					return
				}
				continue
			}
			c.Frames++
		}
		if tick != nil {
			select {
			case <-tick.C:
			case <-ctx.Done():
			}
		}
	}
}
