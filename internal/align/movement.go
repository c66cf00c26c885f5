// Package align implements the motion-measurement middle layer of RIM
// (§4.1–4.3): movement detection from self-TRRS, dynamic-programming peak
// tracking over alignment matrices, and the pre/post detection of which
// antenna pairs are actually aligned.
package align

import (
	"slices"

	"rim/internal/trrs"
)

// MovementConfig parameterizes §4.1 movement detection.
type MovementConfig struct {
	// LagSeconds is l_mv, the primary self-comparison lag. Chosen so that
	// brisk motion displaces the antenna by millimeters within it
	// (default 0.05 s: 5 mm at 0.1 m/s).
	LagSeconds float64
	// SlowLagSeconds is a second, longer lag that catches slow motions
	// (in-place rotation moves each antenna at only ω·r m/s) which barely
	// displace the antenna within LagSeconds (default 0.25 s).
	SlowLagSeconds float64
	// V is the virtual-massive window for the self-TRRS.
	V int
	// Threshold on the self-TRRS below which movement triggers.
	Threshold float64
	// ReleaseThreshold is the hysteresis release level: once moving, the
	// device is considered moving until the indicator rises above it.
	// Slow motions hover between the two levels without splitting a
	// segment, while static noise dips (which stay above Threshold)
	// never trigger.
	ReleaseThreshold float64
}

// DefaultMovementConfig returns the settings used by the experiments.
func DefaultMovementConfig() MovementConfig {
	return MovementConfig{
		LagSeconds:       0.05,
		SlowLagSeconds:   0.25,
		V:                4,
		Threshold:        0.8,
		ReleaseThreshold: 0.86,
	}
}

// MovementIndicator returns the per-slot movement statistic. For each lag
// the per-slot value is max(κ(t, t−lag), κ(t+lag, t)) — the device is
// considered static at t if the channel matches on either side of t, which
// keeps the indicator from smearing movement into the pause that follows a
// stop. The final indicator is the minimum over the fast and slow lags
// (the slow lag catches slow motions the fast lag cannot resolve) averaged
// over antennas. Values near 1 mean static; clear drops mean motion.
func MovementIndicator(e *trrs.Engine, cfg MovementConfig) []float64 {
	return foldLags(e, cfg.V, movementLags(cfg, e.Rate()), ones(e.NumSlots()))
}

// MovementIndicators returns MovementIndicator(e, cfg) together with the
// fast-lag indicator, MovementIndicator of cfg with SlowLagSeconds = 0,
// from one pass over the fast lag: the fast config's lag list is a prefix
// of cfg's (see movementLags), so the combined indicator folds cfg's
// remaining lag into a copy of the fast one. The minimum is exact, so both
// are bit-identical to the two separate calls.
func MovementIndicators(e *trrs.Engine, cfg MovementConfig) (ind, fast []float64) {
	lags := movementLags(cfg, e.Rate())
	fast = foldLags(e, cfg.V, lags[:1], ones(e.NumSlots()))
	return foldLags(e, cfg.V, lags[1:], slices.Clone(fast)), fast
}

// movementLags returns MovementIndicator's lags in slots, fast lag first.
// The slow lag is kept only when it spans more slots than the fast one.
// That is the rule SlowLagSeconds > LagSeconds except where both round
// to the same slot count, and folding the same lag twice is a no-op
// under the minimum. So SlowLagSeconds = 0 gives [fast], a prefix of
// every config's list.
func movementLags(cfg MovementConfig, rate float64) []int {
	fast := max(int(cfg.LagSeconds*rate), 1)
	if slow := max(int(cfg.SlowLagSeconds*rate), 1); slow > fast {
		return []int{fast, slow}
	}
	return []int{fast}
}

// ones returns n ones, the indicator before any lag is folded in.
func ones(n int) []float64 {
	acc := make([]float64, n)
	for t := range acc {
		acc[t] = 1
	}
	return acc
}

// foldLags lowers acc to each lag's antenna-averaged two-sided self-TRRS,
// lag by lag, and returns it.
func foldLags(e *trrs.Engine, v int, lags []int, acc []float64) []float64 {
	slots := e.NumSlots()
	for _, lag := range lags {
		perLag := make([]float64, slots)
		for a := 0; a < e.NumAntennas(); a++ {
			s := e.SelfSeries(a, lag, v)
			for t := range perLag {
				fwd := s[t]
				bi := t + lag
				if bi >= slots {
					bi = slots - 1
				}
				bwd := s[bi]
				best := fwd
				if bwd > best {
					best = bwd
				}
				perLag[t] += best
			}
		}
		inv := 1 / float64(e.NumAntennas())
		for t := range perLag {
			perLag[t] *= inv
			if perLag[t] < acc[t] {
				acc[t] = perLag[t]
			}
		}
	}
	return acc
}

// ThresholdWithHysteresis converts an indicator series into moving flags:
// trigger when the value drops below Threshold, release when it rises above
// ReleaseThreshold (which defaults to Threshold when unset or inverted).
func ThresholdWithHysteresis(ind []float64, cfg MovementConfig) []bool {
	release := cfg.ReleaseThreshold
	if release < cfg.Threshold {
		release = cfg.Threshold
	}
	out := make([]bool, len(ind))
	moving := false
	for t, v := range ind {
		if moving {
			if v > release {
				moving = false
			}
		} else if v < cfg.Threshold {
			moving = true
		}
		out[t] = moving
	}
	// The trigger threshold delays the onset slightly; pull each run's
	// start back to where the indicator first left the fully static
	// level, so the segment boundary matches the physical start of
	// motion.
	for t := 1; t < len(out); t++ {
		if out[t] && !out[t-1] {
			for b := t - 1; b >= 0 && !out[b] && ind[b] < release; b-- {
				out[b] = true
			}
		}
	}
	return out
}

// Segments groups a boolean flag sequence into [start, end) runs of true at
// least minLen slots long; shorter runs are discarded, and gaps of up to
// maxGap false slots inside a run are bridged (transient detector dropouts
// should not split one physical movement).
func Segments(flags []bool, minLen, maxGap int) [][2]int {
	var out [][2]int
	i := 0
	n := len(flags)
	for i < n {
		if !flags[i] {
			i++
			continue
		}
		start := i
		end := i + 1
		gap := 0
		for j := i + 1; j < n; j++ {
			if flags[j] {
				end = j + 1
				gap = 0
			} else {
				gap++
				if gap > maxGap {
					break
				}
			}
		}
		if end-start >= minLen {
			out = append(out, [2]int{start, end})
		}
		i = end + maxGap
	}
	return out
}

// Prominence returns, per slot, how sharply the matrix row peaks: the
// maximum minus the best value outside a guard band of ±guard columns
// around the argmax. A genuine alignment peak is narrow (its width is the
// TRRS focusing width divided by the speed), so excluding the guard band
// leaves only the floor; the broad proximity bump of an unaligned pair
// survives just outside any reasonable guard and scores near 0. Used by
// pre-detection (§4.3). guard < 1 defaults to a fifth of the lag window.
func Prominence(m *trrs.Matrix, guard int) []float64 {
	guard = prominenceGuard(m.W, guard)
	out := make([]float64, m.NumSlots())
	for t, row := range m.Vals {
		out[t] = rowProminence(row, guard)
	}
	return out
}

// prominenceGuard resolves Prominence's guard argument for a lag window of
// ±w columns.
func prominenceGuard(w, guard int) int {
	if guard >= 1 {
		return guard
	}
	// The physical peak width is set by the TRRS focusing distance over
	// the speed, not by the window, so wide windows must not demand
	// implausibly narrow peaks: clamp the default guard.
	return min(max(w/5, 2), 10)
}

// rowProminence is one row's Prominence: its maximum minus the best value
// outside ±guard columns of the argmax.
func rowProminence(row []float64, guard int) float64 {
	mx, mi := -1.0, 0
	for c, v := range row {
		if v > mx {
			mx, mi = v, c
		}
	}
	second := 0.0
	for c, v := range row {
		if (c < mi-guard || c > mi+guard) && v > second {
			second = v
		}
	}
	return mx - second
}

// PreDetectConfig controls candidate-pair screening.
type PreDetectConfig struct {
	// MinProminence is the per-slot peak prominence to count a slot as
	// "peaked".
	MinProminence float64
	// MinFraction is the fraction of slots (within the segment) that must
	// be peaked for the pair to remain a candidate.
	MinFraction float64
}

// DefaultPreDetectConfig returns the screening thresholds.
func DefaultPreDetectConfig() PreDetectConfig {
	return PreDetectConfig{MinProminence: 0.07, MinFraction: 0.3}
}

// PreDetect reports whether the matrix shows prominent peaks most of the
// time within [start, end) — the §4.3 pre-check that excludes obviously
// unaligned pairs before the expensive peak tracking. It returns the
// fraction of peaked slots and the pass/fail decision.
func PreDetect(m *trrs.Matrix, start, end int, cfg PreDetectConfig) (float64, bool) {
	if start < 0 {
		start = 0
	}
	if end > m.NumSlots() {
		end = m.NumSlots()
	}
	if end <= start {
		return 0, false
	}
	// Only the window's rows are scored: the pipeline screens many short
	// windows of one long matrix.
	guard := prominenceGuard(m.W, 0)
	peaked := 0
	for _, row := range m.Vals[start:end] {
		if rowProminence(row, guard) >= cfg.MinProminence {
			peaked++
		}
	}
	frac := float64(peaked) / float64(end-start)
	return frac, frac >= cfg.MinFraction
}
