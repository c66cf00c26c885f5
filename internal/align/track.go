package align

import (
	"math"

	"rim/internal/sigproc"
	"rim/internal/trrs"
)

// TrackConfig parameterizes the §4.2 dynamic-programming peak tracker.
type TrackConfig struct {
	// JumpCost is the penalty (in TRRS units) per slot of lag change
	// between consecutive time steps — the ω·C(q,q') term of Eq. 7 with
	// the cost expressed per slot. Physically the alignment delay varies
	// slowly (it is Δd divided by the speed), so lag jumps should cost a
	// noticeable fraction of a TRRS peak. Crucially the penalty must NOT
	// scale with the window width: normalizing by 2W (as a literal
	// reading of Eq. 7 suggests) makes jumps nearly free in wide windows
	// and lets the tracker wander.
	JumpCost float64
	// MedianHalf smooths the tracked lag sequence with a running median of
	// this half-width (0 disables), absorbing single-slot outliers from
	// packet loss.
	MedianHalf int
}

// DefaultTrackConfig returns the tracker settings used by the experiments.
func DefaultTrackConfig() TrackConfig {
	return TrackConfig{JumpCost: 0.067, MedianHalf: 3}
}

// Track is the result of peak tracking on one alignment matrix over a
// segment [Start, End).
type Track struct {
	I, J       int
	Start, End int
	// Lags[t-Start] is the tracked signed lag (slots) at slot t.
	Lags []int
	// Refined[t-Start] is the sub-slot lag obtained by parabolic
	// interpolation of the TRRS around the tracked peak. Integer lags
	// quantize speed to Δd/(k·dt) steps — ~8% at the paper's operating
	// point — so the centimeter-level distance accuracy depends on this
	// refinement. Empty when refinement was not possible.
	Refined []float64
	// Vals[t-Start] is the TRRS value along the tracked path.
	Vals []float64
	// Score is the total DP score of the optimal path (Eq. 6).
	Score float64
}

// Lag returns the best available lag estimate at index k: the refined
// sub-slot value when present, the integer lag otherwise.
func (tr *Track) Lag(k int) float64 {
	if k < len(tr.Refined) {
		return tr.Refined[k]
	}
	return float64(tr.Lags[k])
}

// MeanVal returns the average TRRS along the path.
func (tr *Track) MeanVal() float64 { return sigproc.Mean(tr.Vals) }

// Smoothness returns the mean absolute lag step along the path (slots);
// small values mean a physically plausible, slowly varying delay.
func (tr *Track) Smoothness() float64 {
	if len(tr.Lags) < 2 {
		return 0
	}
	var s float64
	for i := 1; i < len(tr.Lags); i++ {
		s += math.Abs(float64(tr.Lags[i] - tr.Lags[i-1]))
	}
	return s / float64(len(tr.Lags)-1)
}

// MedianLag returns the median tracked lag in slots.
func (tr *Track) MedianLag() float64 {
	l := make([]float64, len(tr.Lags))
	for i, v := range tr.Lags {
		l[i] = float64(v)
	}
	return sigproc.Median(l)
}

// MedianAbsLag returns the median lag magnitude in slots. Unlike the
// signed median it stays meaningful for back-and-forth tracks, whose
// positive and negative phases cancel in MedianLag.
func (tr *Track) MedianAbsLag() float64 {
	l := make([]float64, len(tr.Lags))
	for i, v := range tr.Lags {
		l[i] = math.Abs(float64(v))
	}
	return sigproc.Median(l)
}

// TrackPeaks runs the Eq. 6–8 dynamic program on matrix m restricted to
// slots [start, end): it finds the lag path maximizing the sum of per-slot
// TRRS values minus the per-slot jump costs between consecutive slots,
// then traces it back and median-smooths it.
func TrackPeaks(m *trrs.Matrix, start, end int, cfg TrackConfig) *Track {
	return (*TrackScratch)(nil).TrackPeaks(m, start, end, cfg)
}

// TrackScratch is the dynamic program's working storage, reused across
// TrackPeaks calls: the back-pointer table (one int32 per slot and lag,
// ~36 KB for a 150-slot segment at W = 30) and the three score rows. The
// zero value is ready to use; a scratch serves one call at a time.
type TrackScratch struct {
	back  []int32
	score []float64
}

// TrackPeaks is the package's TrackPeaks with its working storage taken
// from s (a nil s allocates it). The returned Track owns its slices.
func (s *TrackScratch) TrackPeaks(m *trrs.Matrix, start, end int, cfg TrackConfig) *Track {
	if start < 0 {
		start = 0
	}
	if end > m.NumSlots() {
		end = m.NumSlots()
	}
	if end <= start {
		return &Track{I: m.I, J: m.J, Start: start, End: start}
	}
	width := 2*m.W + 1
	n := end - start
	// score[c] is the best path score ending at column c of the current
	// slot; back[t*width+c] is the predecessor column (row 0 unused). The
	// DP overwrites every entry it reads, so reused storage needs no
	// clearing.
	score, next, bestFrom, back := s.rows(width, n)
	copy(score, m.Vals[start])
	costUnit := cfg.JumpCost // positive penalty per slot of lag jump
	if costUnit <= 0 {
		costUnit = 0.067
	}
	for t := 1; t < n; t++ {
		row := m.Vals[start+t]
		bestIdx := back[t*width : (t+1)*width]
		// The transition max_l { score[l] − costUnit·|l−n| } is computed
		// in O(width) total via two directional passes instead of
		// O(width²): a forward pass carries the best "from the left"
		// candidate, a backward pass the best "from the right".
		// Left-to-right.
		run, runIdx := math.Inf(-1), int32(0)
		for c := 0; c < width; c++ {
			if score[c] >= run {
				run, runIdx = score[c], int32(c)
			}
			bestFrom[c], bestIdx[c] = run, runIdx
			run -= costUnit // penalty grows as we move away
		}
		// Right-to-left.
		run, runIdx = math.Inf(-1), int32(width-1)
		for c := width - 1; c >= 0; c-- {
			if score[c] >= run {
				run, runIdx = score[c], int32(c)
			}
			if run > bestFrom[c] {
				bestFrom[c], bestIdx[c] = run, runIdx
			}
			run -= costUnit
		}
		for c := 0; c < width; c++ {
			next[c] = bestFrom[c] + row[c]
		}
		score, next = next, score
	}
	// Find the best terminal column (Eq. 8) and trace back.
	bestC, bestS := 0, math.Inf(-1)
	for c, s := range score {
		if s > bestS {
			bestC, bestS = c, s
		}
	}
	lags := make([]int, n)
	vals := make([]float64, n)
	c := int32(bestC)
	for t := n - 1; t >= 0; t-- {
		lags[t] = int(c) - m.W
		vals[t] = m.Vals[start+t][c]
		if t > 0 {
			c = back[t*width+int(c)]
		}
	}
	if cfg.MedianHalf > 0 {
		f := make([]float64, n)
		for i, l := range lags {
			f[i] = float64(l)
		}
		sm := sigproc.MedianFilter(f, cfg.MedianHalf)
		for i := range lags {
			lags[i] = int(math.Round(sm[i]))
		}
	}
	// Sub-slot refinement: fit a parabola through the TRRS at the tracked
	// lag and its neighbours; the vertex offset resolves the alignment
	// delay below the sampling grid.
	refined := make([]float64, n)
	for t := 0; t < n; t++ {
		refined[t] = refineLag(m, start+t, lags[t])
	}
	return &Track{
		I: m.I, J: m.J, Start: start, End: end,
		Lags: lags, Refined: refined, Vals: vals, Score: bestS,
	}
}

// rows returns the DP's three score rows of width entries and its
// back-pointer table of n·width, from s when s is not nil.
func (s *TrackScratch) rows(width, n int) (score, next, bestFrom []float64, back []int32) {
	if s == nil {
		s = &TrackScratch{}
	}
	if cap(s.score) < 3*width {
		s.score = make([]float64, 3*width)
	}
	if cap(s.back) < n*width {
		s.back = make([]int32, n*width)
	}
	f := s.score[:3*width]
	return f[:width], f[width : 2*width], f[2*width:], s.back[:n*width]
}

// refineLag interpolates the TRRS peak position around integer lag.
func refineLag(m *trrs.Matrix, t, lag int) float64 {
	fl := float64(lag)
	if lag <= -m.W || lag >= m.W {
		return fl
	}
	y0 := m.At(t, lag-1)
	y1 := m.At(t, lag)
	y2 := m.At(t, lag+1)
	den := y0 - 2*y1 + y2
	if den >= 0 {
		// Not a local maximum (flat or valley): keep the integer lag.
		return fl
	}
	delta := 0.5 * (y0 - y2) / den
	if delta > 0.5 {
		delta = 0.5
	} else if delta < -0.5 {
		delta = -0.5
	}
	return fl + delta
}

// PostCheckConfig holds the §4.3 post-detection thresholds.
type PostCheckConfig struct {
	// MinMeanVal is the minimum average TRRS along the path.
	MinMeanVal float64
	// MaxSmoothness is the maximum mean absolute lag step (slots).
	MaxSmoothness float64
	// MinAbsLag rejects paths that hug lag 0 (an antenna cannot be
	// aligned with another at zero delay unless they are co-located).
	MinAbsLag float64
}

// DefaultPostCheckConfig returns the post-detection thresholds.
func DefaultPostCheckConfig() PostCheckConfig {
	return PostCheckConfig{MinMeanVal: 0.3, MaxSmoothness: 3.0, MinAbsLag: 1.0}
}

// PostCheck examines a tracked path for continuity, TRRS level and
// smoothness (§4.3) and returns a confidence in [0, 1] (0 when rejected).
// Confidence blends the normalized TRRS level with a smoothness bonus so
// that, among accepted pairs, better-aligned ones rank higher.
func PostCheck(tr *Track, cfg PostCheckConfig) float64 {
	if len(tr.Lags) == 0 {
		return 0
	}
	mean := tr.MeanVal()
	if mean < cfg.MinMeanVal {
		return 0
	}
	sm := tr.Smoothness()
	if sm > cfg.MaxSmoothness {
		return 0
	}
	if tr.MedianAbsLag() < cfg.MinAbsLag {
		return 0
	}
	conf := mean * (1 - sm/(2*cfg.MaxSmoothness))
	if conf < 0 {
		conf = 0
	}
	if conf > 1 {
		conf = 1
	}
	return conf
}
