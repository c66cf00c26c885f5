package core

import (
	"rim/internal/obs/trace"
)

// Zero-velocity (ZUPT) interval extraction. RIM's §4.1 movement detector is
// a robust zero-velocity detector: the self-TRRS indicator saturates near 1
// whenever the array is static, regardless of environmental churn that
// fools accelerometer-variance detectors. Promoting the static runs to
// first-class intervals turns them into pseudo-measurements — a confirmed
// zero-velocity interval pins the speed and gyro biases of an inertial
// filter (see internal/fusion's ESKF backend and DESIGN.md "Fusion
// backends & ZUPT").

// ZUPTInterval is one confirmed zero-velocity interval over the slot range
// [Start, End).
type ZUPTInterval struct {
	// Start and End bound the interval in slots, [Start, End).
	Start, End int
	// Confidence grades the interval in [0, 1]: how decisively the movement
	// indicator sat above the release level across the interval. Static
	// slots pinned at indicator 1 score 1; slots hovering at the release
	// boundary score near 0.
	Confidence float64
}

// Seconds returns the interval duration at the given slot rate.
func (z ZUPTInterval) Seconds(rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	return float64(z.End-z.Start) / rate
}

// zuptStatic reports whether slot t is zero-velocity evidence: the
// hysteresis detector holds it static, the indicator actually sits at or
// above the release level (not a mid-hysteresis flicker), and the slot is
// not data-degraded — a slot whose antennas are mostly interpolated says
// nothing about motion and must not anchor a pseudo-measurement.
func (p *Pipeline) zuptStatic(t int) bool {
	if t >= len(p.moving) || p.moving[t] {
		return false
	}
	if t < len(p.movingSoft) && p.movingSoft[t] {
		return false // indicator below the release level: ambiguous
	}
	if p.missFrac != nil && t < len(p.missFrac) && p.missFrac[t] >= degradedMissFrac {
		return false
	}
	return true
}

// extractZUPTs scans the movement flags of the last Process pass and
// returns the confirmed zero-velocity intervals of at least minLen slots,
// ordered and non-overlapping. ind is the movement indicator used for
// confidence grading; release is the hysteresis release level.
func (p *Pipeline) extractZUPTs(ind []float64, release float64, minLen int) []ZUPTInterval {
	if minLen < 1 {
		minLen = 1
	}
	var out []ZUPTInterval
	n := len(p.moving)
	for t := 0; t < n; {
		if !p.zuptStatic(t) {
			t++
			continue
		}
		start := t
		conf := 0.0
		for t < n && p.zuptStatic(t) {
			if t < len(ind) {
				conf += zuptSlotConfidence(ind[t], release)
			}
			t++
		}
		if t-start >= minLen {
			out = append(out, ZUPTInterval{
				Start:      start,
				End:        t,
				Confidence: conf / float64(t-start),
			})
		}
	}
	return out
}

// zuptSlotConfidence grades one static slot's indicator value into [0, 1]:
// 0 at the release level, 1 when the indicator saturates at 1.
func zuptSlotConfidence(ind, release float64) float64 {
	if release >= 1 {
		return 1
	}
	c := (ind - release) / (1 - release)
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// emitZUPTs publishes one Process pass's intervals to the trace recorder
// and metric counters. Like rim_estimates_total, the streaming front end
// re-analyzes overlapping windows, so for streams these counters measure
// analysis work, not distinct wall-clock intervals.
func (p *Pipeline) emitZUPTs(zupts []ZUPTInterval, hop int64) {
	for _, z := range zupts {
		p.cfg.Trace.Emit(trace.KindZUPT, hop, int64(z.Start), int64(z.End), int64(z.Confidence*1000))
		p.cfg.po.zuptSlots.Add(uint64(z.End - z.Start))
	}
	p.cfg.po.zuptIntervals.Add(uint64(len(zupts)))
}
