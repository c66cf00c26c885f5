// Package experiments regenerates every figure of the paper's evaluation
// (§6): one runner per figure, each producing a Report with the same rows
// or series the paper plots, alongside the paper's claim for side-by-side
// comparison. cmd/rimbench prints all reports; bench_test.go wraps each
// runner in a testing.B benchmark; the package tests assert the *shape* of
// each result (who wins, by roughly what factor, where crossovers fall).
package experiments

import (
	"fmt"
	"strings"

	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/csi"
	"rim/internal/floorplan"
	"rim/internal/geom"
	"rim/internal/rf"
	"rim/internal/traj"
)

// Scale selects the experiment size: Fast for tests/benchmarks (reduced
// subcarriers, shorter traces, fewer repetitions), Full for the
// cmd/rimbench reproduction run at the paper's parameters.
type Scale int

const (
	// Fast is the reduced test scale.
	Fast Scale = iota
	// Full is the paper-parameter scale.
	Full
)

// Rate returns the CSI packet rate for the scale (the paper uses 200 Hz).
func (s Scale) Rate() float64 {
	if s == Full {
		return 200
	}
	return 100
}

// RF returns the radio configuration for the scale.
func (s Scale) RF() rf.Config {
	if s == Full {
		return rf.DefaultConfig()
	}
	return rf.FastConfig()
}

// Pick returns fast for Fast scale and full for Full scale.
func (s Scale) Pick(fast, full int) int {
	if s == Full {
		return full
	}
	return fast
}

// PickF is Pick for float64.
func (s Scale) PickF(fast, full float64) float64 {
	if s == Full {
		return full
	}
	return fast
}

// Report is one regenerated figure: a table of rows mirroring what the
// paper plots, plus the paper's claim for comparison.
type Report struct {
	ID         string
	Title      string
	PaperClaim string
	Columns    []string
	Rows       [][]string
	Notes      []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a free-form note line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Setup is the shared experimental apparatus: the office floorplan with a
// selected AP location and an environment whose scatterers surround the
// open experiment area.
type Setup struct {
	Office *floorplan.Office
	Env    *rf.Environment
	// Area is the center of the open experiment space.
	Area geom.Vec2
}

// NewSetup builds the office environment with the AP at location apID
// (0 = the default far-corner NLOS placement) and the scatterer field
// around the open experiment area.
func NewSetup(scale Scale, apID int, seed int64) *Setup {
	office := floorplan.NewOffice()
	return NewSetupAt(scale, apID, office.OpenAreaCenter(), seed)
}

// NewSetupAt is NewSetup with the experiment area (and scatterer field)
// centered at an arbitrary floor position — for workloads that run outside
// the central open space, e.g. corridor tours.
func NewSetupAt(scale Scale, apID int, area geom.Vec2, seed int64) *Setup {
	office := floorplan.NewOffice()
	ap, err := office.AP(apID)
	if err != nil {
		panic(err)
	}
	cfg := scale.RF()
	cfg.Seed = seed
	env := rf.NewEnvironment(cfg, ap.Pos, area, &office.Plan)
	return &Setup{Office: office, Env: env, Area: area}
}

// Acquire simulates and preprocesses CSI for a motion.
func (s *Setup) Acquire(arr *array.Array, tr *traj.Trajectory, seed int64) (*csi.Series, error) {
	return csi.Collect(s.Env, arr, tr, csi.RealisticReceiver(seed)).Process(true)
}

// AcquireWith is Acquire with explicit receiver impairments (stress tests).
func (s *Setup) AcquireWith(arr *array.Array, tr *traj.Trajectory, rcfg csi.ReceiverConfig) (*csi.Series, error) {
	return csi.Collect(s.Env, arr, tr, rcfg).Process(true)
}

// StressedReceiver returns a low-SNR, lossy receiver used by the
// experiments that probe robustness mechanisms (virtual massive antennas,
// DP tracking): at the nominal SNR the pipeline is accurate even without
// them, exactly as a clean channel would hide their value on hardware.
func StressedReceiver(seed int64) csi.ReceiverConfig {
	r := csi.RealisticReceiver(seed)
	r.SNRdB = 9
	r.LossProb = 0.06
	return r
}

// CoreConfig returns the pipeline configuration for the scale: the paper's
// operating point at Full, core.FastConfig's reduced lag window at Fast
// (test motions are brisk).
func CoreConfig(scale Scale, arr *array.Array) core.Config {
	if scale == Fast {
		return core.FastConfig(arr)
	}
	return core.DefaultConfig(arr)
}

// Spacing is the λ/2 element spacing of the prototype arrays.
const Spacing = 0.029

// DistanceErrors is the collection of absolute distance errors (meters) a
// distance experiment produces; helper methods format the standard rows.
type DistanceErrors []float64

// Centimeters converts to centimeters.
func (d DistanceErrors) Centimeters() []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = v * 100
	}
	return out
}
