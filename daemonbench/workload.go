package main

import (
	"fmt"
	"math"
	"time"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/experiments"
	"rim/internal/geom"
	"rim/internal/rf"
	"rim/internal/traj"
)

// rate is the simulated CSI packet rate of every walker, Hz.
const rate = 100.0

// tick is the generator's send period: one frame per walker per tick.
const tick = time.Second / time.Duration(rate)

// maxTemplates bounds how many distinct walks a workload synthesizes.
// Walkers sharing a template send the identical frame sequence, so the
// offline correctness replay runs once per template, not once per walker.
const maxTemplates = 8

// workload is one open-loop traffic mix.
type workload struct {
	name    string
	walkers int
	ants    int  // 2 = pair array, 6 = hexagonal two-NIC array
	numTx   int  // AP transmit antennas
	idle    bool // 3.6 s still then a 0.2 m step, instead of the 75%-moving walk
	eskf    bool // per-session ESKF fusion (-fusion eskf)
}

var workloads = []workload{
	{name: "fleet-pair-walk", walkers: 32, ants: 2, numTx: 1},
	{name: "hexa-walk-100hz", walkers: 4, ants: 6, numTx: 3},
	{name: "fleet-pair-idle-eskf", walkers: 48, ants: 2, numTx: 1, idle: true, eskf: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// arrayForAnts mirrors rimserved's mapping from a session's antenna count
// to its canonical receive geometry.
func arrayForAnts(n int) (*array.Array, error) {
	switch n {
	case 2:
		return array.NewPairArray(experiments.Spacing), nil
	case 3:
		return array.NewLinear3(experiments.Spacing), nil
	case 6:
		return array.NewHexagonal(experiments.Spacing), nil
	}
	return nil, fmt.Errorf("no canonical array with %d antennas (want 2, 3 or 6)", n)
}

// template is one synthesized closed walk, replayed in a loop. The walk
// returns to its start, so the loop has no position jump at the wrap.
type template struct {
	series *csi.Series
	// step[k] is the true distance travelled from loop slot k-1 to k
	// (step[0] closes the loop from the last slot).
	step []float64
}

// buildTemplate synthesizes one loop on rimloadgen's walk template (fast
// RF config, 30 tones, realistic receiver, seeded), on the workload's
// array and AP.
func buildTemplate(wl workload, seed int64) (*template, error) {
	arr, err := arrayForAnts(wl.ants)
	if err != nil {
		return nil, err
	}
	cfg := rf.FastConfig()
	cfg.Seed = seed
	cfg.NumTxAntennas = wl.numTx
	env := rf.NewEnvironment(cfg, geom.Vec2{}, geom.Vec2{X: 5}, nil)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 4}})
	if wl.idle {
		b.Pause(3.6)
		b.MoveDir(0, 0.2, 0.5)
		b.Pause(3.6)
		b.MoveDir(math.Pi, 0.2, 0.5)
	} else {
		b.Pause(0.5)
		b.MoveDir(0, 0.75, 0.5)
		b.Pause(0.5)
		b.MoveDir(math.Pi, 0.75, 0.5)
	}
	tr := b.Build()
	series, err := csi.Collect(env, arr, tr, csi.RealisticReceiver(seed)).Process(true)
	if err != nil {
		return nil, err
	}
	pos := tr.Positions()
	n := series.NumSlots()
	if len(pos) < n {
		return nil, fmt.Errorf("trajectory has %d poses for %d slots", len(pos), n)
	}
	step := make([]float64, n)
	for k := range step {
		prev := pos[(k+n-1)%n]
		step[k] = math.Hypot(pos[k].X-prev.X, pos[k].Y-prev.Y)
	}
	return &template{series: series, step: step}, nil
}

// fleet is a workload instantiated for one seed: its templates and the
// per-walker schedule. Both the daemon side and the generator process
// build it from the same arguments, so they agree frame for frame.
type fleet struct {
	wl        workload
	templates []*template
	walkers   []walker
	frames    int // frames every walker sends
}

// walker is one simulated session.
type walker struct {
	id     string
	tmpl   int // index into fleet.templates
	offset int // start offset in ticks, spreading hops over one hop period
}

// newFleet synthesizes the templates and lays out the walkers. Walker
// start offsets are spread evenly over one analysis hop so the fleet's
// hops do not all land on the same tick.
func newFleet(wl workload, seed int64, seconds float64) (*fleet, error) {
	f := &fleet{wl: wl, frames: int(math.Round(seconds * rate))}
	k := min(wl.walkers, maxTemplates)
	f.templates = make([]*template, k)
	errs := make(chan error, k)
	for i := range f.templates {
		go func(i int) {
			t, err := buildTemplate(wl, seed*1000+int64(i)+1)
			f.templates[i] = t
			errs <- err
		}(i)
	}
	for range f.templates {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	hopTicks := int(math.Round(served.hop * rate))
	for i := 0; i < wl.walkers; i++ {
		f.walkers = append(f.walkers, walker{
			id:     fmt.Sprintf("w%04d", i),
			tmpl:   i % k,
			offset: i * hopTicks / wl.walkers,
		})
	}
	return f, nil
}

// frameRows returns walker frame k's rows [ant][tx] and missing flags.
func (f *fleet) frameRows(w walker, k int, snap [][][]complex128, missing []bool) {
	s := f.templates[w.tmpl].series
	t := k % s.NumSlots()
	for a := 0; a < s.NumAnts; a++ {
		for tx := 0; tx < s.NumTx; tx++ {
			snap[a][tx] = s.H[a][tx][t]
		}
		missing[a] = s.Missing != nil && t < len(s.Missing[a]) && s.Missing[a][t]
	}
}

// trueDistance is the distance a walker of template ti covers over its
// frames 0..frames-1.
func (f *fleet) trueDistance(ti int) float64 {
	step := f.templates[ti].step
	var d float64
	for k := 1; k < f.frames; k++ {
		d += step[k%len(step)]
	}
	return d
}

// lastTick is the tick of the last frame any walker sends.
func (f *fleet) lastTick() int {
	last := 0
	for _, w := range f.walkers {
		if t := w.offset + f.frames - 1; t > last {
			last = t
		}
	}
	return last
}
