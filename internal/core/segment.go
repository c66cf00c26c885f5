package core

import (
	"math"
	"math/bits"

	"rim/internal/align"
	"rim/internal/geom"
	"rim/internal/sigproc"
)

// processSegment classifies and measures one movement segment, filling the
// per-slot estimates in res and returning the segment summary.
func (p *Pipeline) processSegment(start, end int, res *Result) SegmentResult {
	if rot, sr := p.tryRotation(start, end, res); rot {
		return sr
	}
	return p.translate(start, end, res)
}

// tryRotation implements the §4.4 rotation test: during an in-place
// rotation every adjacent ring pair aligns simultaneously (unlike a
// translation, which aligns only pairs parallel to the heading).
func (p *Pipeline) tryRotation(start, end int, res *Result) (bool, SegmentResult) {
	if len(p.ring) < 4 {
		return false, SegmentResult{}
	}
	// Rotation test (§4.4): during an in-place rotation EVERY adjacent
	// ring pair aligns simultaneously, and — unlike a translation, where
	// the two motion-parallel ring pairs align with opposite lag signs —
	// all of them share one consistent alignment delay (the time to
	// rotate by 2π/m). So: track every ring pair over the settled part of
	// the segment, keep those passing the post-check, and demand that at
	// least rotationMinRingFrac of the ring agrees on one lag.
	rate := p.eng.Rate()
	dt := 1 / rate
	n := end - start
	sumW := make([]float64, n)
	cntW := make([]int, n)
	r := p.cfg.Array.Radius()
	// Effective separation for rotation is the arc length between
	// adjacent ring elements: a regular m-ring subtends 2π/m per element,
	// so arc = 2πr/m (π/3·Δd for the hexagon, §4.4).
	arc := 2 * math.Pi * r / float64(len(p.ring))
	// Nothing is written to res before the consistency test, so every
	// early exit below returns exactly what the full test would.
	//
	// Lag consistency is judged on the settled region only, from each
	// passing pair's median lag there. Those lags do not depend on the
	// full tracks, so take them for every ring pair first: when no set of
	// at least need pairs could agree on one lag, the test fails whatever
	// passes the post-check, and the full tracks are not run (on a
	// translation every ring pair passes it, so they would all run).
	need := rotationMinRingFrac * float64(len(p.ring))
	settled := start + (end-start)/4 // skip the blind first quarter
	settledLags := make([]float64, len(p.ring))
	for k, gm := range p.ring {
		settledLags[k] = p.track.TrackPeaks(gm.m, settled, end, align.DefaultTrackConfig()).MedianLag()
	}
	if !ringCanAgree(settledLags, need) {
		return false, SegmentResult{}
	}
	// At most the pairs passing the post-check can agree on one lag, so
	// the test fails as soon as too few can still pass: stop tracking
	// then.
	var confs []float64
	tracks := make([]*align.Track, 0, len(p.ring))
	ringIdx := make([]int, 0, len(p.ring))
	for k, gm := range p.ring {
		tr := p.track.TrackPeaks(gm.m, start, end, align.DefaultTrackConfig())
		if conf := align.PostCheck(tr, align.DefaultPostCheckConfig()); conf != 0 {
			tracks = append(tracks, tr)
			ringIdx = append(ringIdx, k)
			confs = append(confs, conf)
		}
		if float64(len(tracks)+len(p.ring)-1-k) < need {
			return false, SegmentResult{}
		}
	}
	if len(tracks) == 0 {
		return false, SegmentResult{}
	}
	medLags := make([]float64, len(tracks))
	for i, k := range ringIdx {
		medLags[i] = settledLags[k]
	}
	gmed := sigproc.Median(medLags)
	if math.Abs(gmed) < 2 {
		return false, SegmentResult{}
	}
	consistent := 0
	tol := lagTolerance(gmed)
	keep := tracks[:0]
	var confSum float64
	for i, tr := range tracks {
		if math.Abs(medLags[i]-gmed) <= tol {
			consistent++
			keep = append(keep, tr)
			confSum += confs[i]
		}
	}
	if float64(consistent) < rotationMinRingFrac*float64(len(p.ring)) {
		return false, SegmentResult{}
	}
	tracks = keep
	conf := confSum / float64(consistent)
	// Blind start: no pair aligns before the body has rotated 2π/m, i.e.
	// before |gmed| slots; lags tracked there are spurious. Also reject
	// implausibly small lags anywhere (they would explode the speed).
	warm := int(math.Abs(gmed))
	minLag := math.Abs(gmed) / 2
	if minLag < 2 {
		minLag = 2
	}
	for _, tr := range tracks {
		for k, lag := range tr.Lags {
			rl := tr.Lag(k)
			if k < warm || math.Abs(rl) < minLag {
				continue
			}
			arcSpeed := arc / (math.Abs(rl) * dt)
			w := arcSpeed / r
			if lag < 0 {
				w = -w
			}
			sumW[k] += w
			cntW[k]++
		}
	}
	angVel := make([]float64, n)
	for k := range angVel {
		if cntW[k] > 0 {
			angVel[k] = sumW[k] / float64(cntW[k])
		}
	}
	angVel = sigproc.MedianFilter(angVel, 3)
	angVel = sigproc.MovingAverage(angVel, speedSmoothHalf(rate))
	var angle float64
	for k := range angVel {
		if p.movingSoft != nil && !p.movingSoft[start+k] {
			angVel[k] = 0
		}
		angle += angVel[k] * dt
		e := &res.Estimates[start+k]
		e.Moving = true
		e.Kind = MotionRotate
		e.AngVel = angVel[k]
		e.Speed = math.Abs(angVel[k]) * r
		e.Confidence = conf
	}
	// Compensate the blind start (§5's minimum initial motion, rotation
	// form): the first alignment only happens after 2π/m of rotation.
	if angle > 0 {
		angle += 2 * math.Pi / float64(len(p.ring))
	} else if angle < 0 {
		angle -= 2 * math.Pi / float64(len(p.ring))
	}
	return true, SegmentResult{
		Start: start, End: end,
		Kind:       MotionRotate,
		Angle:      angle,
		Confidence: conf,
	}
}

// lagTolerance is how far a ring pair's settled median lag may lie from
// the ring's median lag gmed and still agree with it.
func lagTolerance(gmed float64) float64 { return math.Max(3, 0.3*math.Abs(gmed)) }

// ringCanAgree reports whether some set S of at least need of the ring
// pairs (by index into lags, their settled median lags) could pass the
// rotation test's consistency check: |median of S| ≥ 2 and at least need
// of S within lagTolerance of it. tryRotation's check runs on the pairs
// passing the post-check, which must be at least need of them, so when no
// S passes, neither does it. Rings of more than 16 pairs are not
// enumerated and always could.
func ringCanAgree(lags []float64, need float64) bool {
	m := len(lags)
	if m > 16 {
		return true
	}
	sub := make([]float64, 0, m)
	for mask := 1; mask < 1<<m; mask++ {
		if float64(bits.OnesCount(uint(mask))) < need {
			continue
		}
		sub = sub[:0]
		for k, l := range lags {
			if mask&(1<<k) != 0 {
				sub = append(sub, l)
			}
		}
		gmed := sigproc.Median(sub)
		if math.Abs(gmed) < 2 {
			continue
		}
		consistent := 0
		for _, l := range sub {
			if math.Abs(l-gmed) <= lagTolerance(gmed) {
				consistent++
			}
		}
		if float64(consistent) >= need {
			return true
		}
	}
	return false
}

// candidate is one pair group's tracked alignment over a window.
type candidate struct {
	gm    groupMatrix
	track *align.Track
	conf  float64
}

// chooseCandidates pre-detects, tracks and post-checks every pair group
// over [w0, w1) and returns all surviving candidates keyed by group index.
func (p *Pipeline) chooseCandidates(w0, w1 int) map[int]*candidate {
	out := map[int]*candidate{}
	for gi, gm := range p.groups {
		if _, ok := align.PreDetect(gm.m, w0, w1, align.DefaultPreDetectConfig()); !ok {
			continue
		}
		tr := p.track.TrackPeaks(gm.m, w0, w1, align.DefaultTrackConfig())
		conf := align.PostCheck(tr, align.DefaultPostCheckConfig())
		if conf == 0 {
			continue
		}
		out[gi] = &candidate{gm: gm, track: tr, conf: conf}
	}
	return out
}

// bestCandidate returns the highest-confidence candidate, or nil.
func bestCandidate(cands map[int]*candidate) (int, *candidate) {
	bi, best := -1, (*candidate)(nil)
	for gi, c := range cands {
		if best == nil || c.conf > best.conf {
			bi, best = gi, c
		}
	}
	return bi, best
}

// translate measures a linear movement segment. The segment is cut into
// heading windows; within each window the winning pair group determines the
// heading and its tracked lags determine the speed, so course changes
// (curved strokes, sideway moves) are followed without requiring a pause.
func (p *Pipeline) translate(start, end int, res *Result) SegmentResult {
	sr := SegmentResult{Start: start, End: end, Kind: MotionTranslate, HeadingBody: math.NaN()}
	rate := p.eng.Rate()
	dt := 1 / rate
	winLen := int(p.cfg.HeadingWindowSeconds * rate)
	if winLen < 4 {
		winLen = 4
	}

	type headStat struct{ dist, conf float64 }
	byHeading := map[int]*headStat{} // keyed by rounded degree
	var total float64
	var confSum, confW float64
	resolvedAny := false
	firstResolved := true

	// Pass 1: gather candidates per window and find the segment's dominant
	// group (confidence-weighted window wins). A warm-up window can
	// narrowly prefer a spurious ridge; cross-window consistency below
	// overrides it when the dominant group is also locally plausible.
	type window struct {
		w0, w1 int
		cands  map[int]*candidate
	}
	var windows []window
	domScore := map[int]float64{}
	for w0 := start; w0 < end; {
		w1 := w0 + winLen
		// Absorb a short tail into the final window.
		if w1 > end || end-w1 < winLen/2 {
			w1 = end
		}
		cands := p.chooseCandidates(w0, w1)
		windows = append(windows, window{w0: w0, w1: w1, cands: cands})
		if gi, best := bestCandidate(cands); best != nil {
			domScore[gi] += best.conf * float64(w1-w0)
		}
		w0 = w1
	}
	domGroup, domBest := -1, 0.0
	for gi, sc := range domScore {
		if sc > domBest {
			domGroup, domBest = gi, sc
		}
	}
	// Median implied speed of the dominant group's windows: the sanity
	// reference for the others.
	var domSpeeds []float64
	for _, win := range windows {
		if gi, best := bestCandidate(win.cands); best != nil && gi == domGroup {
			if l := best.track.MedianAbsLag(); l >= 1 {
				domSpeeds = append(domSpeeds, best.gm.group.Separation/(l*dt))
			}
		}
	}
	domSpeed := sigproc.Median(domSpeeds)

	for _, win := range windows {
		w0, w1 := win.w0, win.w1
		gi, best := bestCandidate(win.cands)
		if best == nil {
			// No alignment in this window (sub-minimum motion, plane
			// departure): leave those slots unresolved.
			continue
		}
		if gi != domGroup && domGroup >= 0 {
			// Consistency override: prefer the segment-dominant group
			// when it is also credible here — even if it narrowly missed
			// pre-detection in this window, a solid tracked path counts.
			dc, ok := win.cands[domGroup]
			if !ok {
				tr := p.track.TrackPeaks(p.groups[domGroup].m, w0, w1, align.DefaultTrackConfig())
				if conf := align.PostCheck(tr, align.DefaultPostCheckConfig()); conf > 0 {
					dc, ok = &candidate{gm: p.groups[domGroup], track: tr, conf: conf}, true
				}
			}
			if ok && dc.conf >= 0.6*best.conf {
				best = dc
			} else if domSpeed > 0 {
				// A window that disagrees with the dominant group AND
				// implies a wildly different speed is a spurious ridge:
				// leave it unresolved rather than corrupt the segment.
				l := best.track.MedianAbsLag()
				if l < 1 {
					continue
				}
				sp := best.gm.group.Separation / (l * dt)
				if sp > 2*domSpeed || sp < domSpeed/2 {
					continue
				}
			}
		}
		resolvedAny = true
		sep := best.gm.group.Separation
		dir := best.gm.group.Direction
		if p.cfg.ContinuousHeading {
			dir = geom.NormalizeAngle(dir + p.refineHeading(best, w0, w1))
		}
		if sr.GroupSep == 0 {
			sr.GroupSep = sep
		}
		n := w1 - w0

		// Minimum-initial-motion (§5): the follower only hits the
		// leader's first footprint after traveling Δd, so the first
		// "median |lag|" slots of the segment are blind — their tracked
		// lags are spurious. Skip them in the integral (compensated by
		// one Δd) and take no sign information from them. The magnitude
		// median (not the signed one) matters: a back-and-forth window
		// has a signed median near zero while its true delay is Δd/v.
		warm := 0
		if firstResolved {
			// Estimate the true delay from the settled second half of
			// the window: the warm-up region's spurious lags would bias
			// a whole-window median low.
			half := len(best.track.Lags) / 2
			absLags := make([]float64, 0, len(best.track.Lags)-half)
			for _, lag := range best.track.Lags[half:] {
				absLags = append(absLags, math.Abs(float64(lag)))
			}
			warm = int(sigproc.Median(absLags))
			if warm > n {
				warm = n
			}
		}

		speed := make([]float64, n)
		lagF := make([]float64, n)
		lastSpeed := 0.0
		for k, lag := range best.track.Lags {
			if rl := best.track.Lag(k); math.Abs(rl) >= 0.5 {
				lastSpeed = sep / (math.Abs(rl) * dt)
			}
			speed[k] = lastSpeed
			lagF[k] = float64(lag)
		}
		// Heading sign per slot from a median-smoothed lag: single-slot
		// tracker excursions must not flip the reported direction.
		lagSm := sigproc.MedianFilter(lagF, 7)
		headPos := make([]bool, n)
		for k := range headPos {
			kk := k
			if kk < warm {
				kk = warm
			}
			if kk >= n {
				kk = n - 1
			}
			headPos[k] = lagSm[kk] >= 0
		}
		speed = sigproc.MedianFilter(speed, 3)
		speed = sigproc.MovingAverage(speed, speedSmoothHalf(rate))
		// Gate on the permissive movement flag: Segments bridges short
		// detector dropouts so tracking stays continuous, but a slot
		// that looks genuinely static must not accrue distance. Also
		// zero speeds wildly above the segment's dominant speed — those
		// come from spurious small lags in warm-up/turn regions.
		for k := range speed {
			if p.movingSoft != nil && !p.movingSoft[w0+k] {
				speed[k] = 0
			}
			if domSpeed > 0 && speed[k] > 1.6*domSpeed {
				speed[k] = 0
			}
			// Physical consistency: a speed above ~0.2 m/s displaces
			// the antennas by >1 cm within the fast detection lag, which
			// must visibly decorrelate the fast self-TRRS. A high
			// claimed speed with a pristine fast indicator is an
			// artifact of environmental churn, not motion.
			if p.fastInd != nil && speed[k] > 0.2 && p.fastInd[w0+k] > 0.93 {
				speed[k] = 0
			}
		}

		var winDist float64
		if firstResolved {
			winDist += sep
			firstResolved = false
		}
		for k := warm; k < n; k++ {
			winDist += speed[k] * dt
		}
		total += winDist
		confSum += best.conf * float64(n)
		confW += float64(n)

		// Per-slot outputs and per-heading distance bookkeeping.
		for k := 0; k < n; k++ {
			e := &res.Estimates[w0+k]
			e.Moving = true
			e.Kind = MotionTranslate
			e.Speed = speed[k]
			e.Confidence = best.conf
			h := dir
			if !headPos[k] {
				h = geom.NormalizeAngle(dir + math.Pi)
			}
			e.HeadingBody = h
			key := int(math.Round(geom.Deg(h)))
			st := byHeading[key]
			if st == nil {
				st = &headStat{}
				byHeading[key] = st
			}
			st.dist += speed[k] * dt
			st.conf = best.conf
		}
	}

	if !resolvedAny {
		sr.Kind = MotionNone
		return sr
	}
	// Dominant heading: the direction covering the most distance.
	bestKey, bestDist := 0, -1.0
	for k, st := range byHeading {
		if st.dist > bestDist {
			bestKey, bestDist = k, st.dist
		}
	}
	sr.Distance = total
	sr.HeadingBody = geom.NormalizeAngle(geom.Rad(float64(bestKey)))
	if confW > 0 {
		sr.Confidence = confSum / confW
	}
	sr.GroupDir = sr.HeadingBody
	return sr
}
