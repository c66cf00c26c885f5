// Package faults models the CSI quality artifacts that dominate commodity
// WiFi deployments (§5 of the paper runs on real NICs; CIRSense and the
// RSSI-rethink line of work stress the same failure modes): bursty packet
// loss, dead or flapping RF chains, interference bursts that crush the SNR,
// AGC gain steps, and corrupt frames carrying NaN or garbage samples.
//
// A Model is a declarative, composable description of the faults to inject
// into one acquisition run. An Injector is the stateful realization of a
// Model for one collect: it owns its own seeded randomness so the fault
// sequence is deterministic and independent of the receiver's sampling
// order, and it is queried per packet / per antenna by csi.Collect.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"rim/internal/obs"
	"rim/internal/obs/trace"
)

// GilbertElliott is the two-state bursty packet-loss channel: a Markov
// chain alternating between a good state (rare loss) and a bad state
// (heavy loss). It reproduces the loss bursts of congested or fading
// links, which plain i.i.d. LossProb cannot: a 30% i.i.d. loss leaves no
// gap longer than a few packets, while a 30% bursty loss starves the
// interpolator for whole windows.
type GilbertElliott struct {
	// PGoodBad / PBadGood are the per-packet state transition
	// probabilities good->bad and bad->good.
	PGoodBad, PBadGood float64
	// LossGood / LossBad are the per-packet loss probabilities within
	// each state.
	LossGood, LossBad float64
}

// NewGilbertElliott builds a chain with the given mean loss rate and mean
// bad-state burst length (in packets). The bad state drops 90% of its
// packets; the good state's residual loss and the state occupancies are
// solved so the stationary loss matches meanLoss.
func NewGilbertElliott(meanLoss, burstLen float64) *GilbertElliott {
	if meanLoss <= 0 {
		return &GilbertElliott{}
	}
	if meanLoss > 0.95 {
		meanLoss = 0.95
	}
	if burstLen < 1 {
		burstLen = 1
	}
	const lossBad = 0.9
	// Stationary bad-state occupancy needed if the good state were
	// lossless; cap it so the chain stays well-defined.
	piBad := meanLoss / lossBad
	if piBad > 0.99 {
		piBad = 0.99
	}
	pBadGood := 1 / burstLen
	// piBad = PGoodBad / (PGoodBad + PBadGood).
	pGoodBad := piBad * pBadGood / (1 - piBad)
	// Residual good-state loss making the stationary rate exact.
	lossGood := (meanLoss - piBad*lossBad) / (1 - piBad)
	if lossGood < 0 {
		lossGood = 0
	}
	return &GilbertElliott{
		PGoodBad: pGoodBad,
		PBadGood: pBadGood,
		LossGood: lossGood,
		LossBad:  lossBad,
	}
}

// Dropout models one RF chain (antenna) failure. With PeriodSeconds == 0
// the chain is solidly dead over [Start, End); an End <= Start means the
// failure is permanent. With PeriodSeconds > 0 the chain flaps: within each
// period it is dead for the leading DutyOff fraction (an intermittent
// connector or thermal fault).
type Dropout struct {
	// Antenna is the global antenna index (array order).
	Antenna int
	// Start / End bound the failure in seconds; End <= Start = permanent.
	Start, End float64
	// PeriodSeconds > 0 makes the failure intermittent with this period.
	PeriodSeconds float64
	// DutyOff is the dead fraction of each period (intermittent only).
	DutyOff float64
}

// Active reports whether the chain is dead at time t.
func (d *Dropout) Active(t float64) bool {
	if t < d.Start {
		return false
	}
	if d.End > d.Start && t >= d.End {
		return false
	}
	if d.PeriodSeconds <= 0 {
		return true
	}
	phase := (t - d.Start) / d.PeriodSeconds
	frac := phase - float64(int(phase))
	return frac < d.DutyOff
}

// Burst is an interference burst: over [Start, Start+Duration) the
// effective noise floor is raised by SNRDropDB (co-channel traffic,
// microwave oven, radar pulse). The boost multiplies the receiver's
// baseline noise std, so the receiver must model noise (SNRdB > 0) for
// bursts to have an effect.
type Burst struct {
	Start, Duration float64
	// SNRDropDB is how far the per-subcarrier SNR is crushed during the
	// burst (noise std multiplied by 10^(SNRDropDB/20)).
	SNRDropDB float64
}

// Active reports whether the burst covers time t.
func (b *Burst) Active(t float64) bool {
	return t >= b.Start && t < b.Start+b.Duration
}

// AGCStep is an automatic-gain-control gain jump: from time T on, the
// NIC's reported CSI amplitude is scaled by GainDB. TRRS normalizes per
// frame so a clean pipeline should shrug these off; the fault exists to
// verify that it does.
type AGCStep struct {
	T float64
	// NIC selects the affected card; -1 applies to every NIC.
	NIC int
	// GainDB is the amplitude step (positive or negative).
	GainDB float64
}

// Corruption injects corrupt frames: with probability Prob per (NIC,
// packet), the frame's samples are replaced by garbage. When NaN is set
// the garbage is NaN/Inf (a driver handing back poisoned buffers);
// otherwise it is huge random amplitudes (bit flips, DMA tearing).
type Corruption struct {
	Prob float64
	NaN  bool
}

// Model composes the faults to inject into one acquisition. The zero value
// injects nothing. A nil *Model is valid everywhere and injects nothing.
type Model struct {
	// Loss replaces/augments i.i.d. packet loss with a bursty channel;
	// each NIC runs an independent chain.
	Loss *GilbertElliott
	// Dropouts lists dead or flapping RF chains.
	Dropouts []Dropout
	// Bursts lists interference windows.
	Bursts []Burst
	// AGCSteps lists gain jumps.
	AGCSteps []AGCStep
	// Corrupt injects corrupt/NaN frames.
	Corrupt Corruption
	// Seed drives all fault randomness (independent of the receiver's).
	Seed int64
	// Obs optionally receives per-event fault counters (rim_fault_*), so a
	// fault-injection run is self-describing: the /metrics scrape shows
	// exactly how many packets were dropped, frames corrupted, chain-dead
	// samples served, and AGC/interference-affected packets injected. nil
	// disables the accounting.
	Obs *obs.Registry
	// Trace optionally receives one trace.KindFault event per injected
	// fault (A = fault code, B = the affected antenna or NIC, -1 when the
	// fault has no such scope), so postmortem bundles carry the exact fault
	// sequence that degraded a run. nil disables the events.
	Trace *trace.Recorder
}

// Validate checks the model against an acquisition shape.
func (m *Model) Validate(numAnts, numNICs int) error {
	if m == nil {
		return nil
	}
	for _, d := range m.Dropouts {
		if d.Antenna < 0 || d.Antenna >= numAnts {
			return fmt.Errorf("faults: dropout antenna %d out of range [0,%d)", d.Antenna, numAnts)
		}
		if d.PeriodSeconds > 0 && (d.DutyOff < 0 || d.DutyOff > 1) {
			return fmt.Errorf("faults: dropout duty %v outside [0,1]", d.DutyOff)
		}
	}
	for _, s := range m.AGCSteps {
		if s.NIC < -1 || s.NIC >= numNICs {
			return fmt.Errorf("faults: AGC step NIC %d out of range", s.NIC)
		}
	}
	if m.Corrupt.Prob < 0 || m.Corrupt.Prob > 1 {
		return fmt.Errorf("faults: corruption prob %v outside [0,1]", m.Corrupt.Prob)
	}
	return nil
}

// Injector is the stateful realization of a Model for one acquisition.
// Methods that consume randomness (PacketLost, CorruptFrame) must be
// called exactly once per (NIC, packet), in packet order, to keep the
// fault sequence deterministic.
type Injector struct {
	m       *Model
	rng     *rand.Rand
	bad     []bool // per-NIC Gilbert-Elliott state
	numNICs int

	// Event counters (nil handles are no-ops when Model.Obs is nil); they
	// count injected events, not random draws, so a clean run keeps every
	// rim_fault_* series at zero.
	cLost, cCorrupt, cDead, cAGC, cInterf *obs.Counter
	// trc mirrors the counters as trace.KindFault events (nil = untraced).
	trc *trace.Recorder
}

// NewInjector realizes the model for an acquisition with numNICs cards.
// A nil model returns a nil injector; all Injector methods are nil-safe.
func (m *Model) NewInjector(numNICs int) *Injector {
	if m == nil {
		return nil
	}
	in := &Injector{
		m:       m,
		rng:     rand.New(rand.NewSource(m.Seed)),
		bad:     make([]bool, numNICs),
		numNICs: numNICs,
		trc:     m.Trace,
	}
	if reg := m.Obs; reg != nil {
		in.cLost = reg.Counter("rim_fault_packets_lost_total",
			"packets dropped by the injected bursty-loss channel")
		in.cCorrupt = reg.Counter("rim_fault_frames_corrupt_total",
			"frames replaced with injected garbage/NaN samples")
		in.cDead = reg.Counter("rim_fault_chain_dead_total",
			"(antenna, packet) samples served by an injected dead RF chain")
		in.cAGC = reg.Counter("rim_fault_agc_packets_total",
			"packets measured under an injected AGC gain step")
		in.cInterf = reg.Counter("rim_fault_interference_packets_total",
			"packets measured inside an injected interference burst")
	}
	return in
}

// PacketLost advances NIC nic's loss chain by one packet and reports
// whether that packet is lost.
func (in *Injector) PacketLost(nic int) bool {
	if in == nil || in.m.Loss == nil {
		return false
	}
	g := in.m.Loss
	if in.bad[nic] {
		if in.rng.Float64() < g.PBadGood {
			in.bad[nic] = false
		}
	} else if in.rng.Float64() < g.PGoodBad {
		in.bad[nic] = true
	}
	p := g.LossGood
	if in.bad[nic] {
		p = g.LossBad
	}
	if p > 0 && in.rng.Float64() < p {
		in.cLost.Inc()
		in.trc.Emit(trace.KindFault, -1, -1, trace.FaultLoss, int64(nic))
		return true
	}
	return false
}

// ChainDead reports whether antenna ant's RF chain is dead at time t.
func (in *Injector) ChainDead(ant int, t float64) bool {
	if in == nil {
		return false
	}
	for i := range in.m.Dropouts {
		d := &in.m.Dropouts[i]
		if d.Antenna == ant && d.Active(t) {
			in.cDead.Inc()
			in.trc.Emit(trace.KindFault, -1, -1, trace.FaultDead, int64(ant))
			return true
		}
	}
	return false
}

// NoiseBoost returns the linear factor (>= 1) by which the noise std is
// raised at time t by active interference bursts.
func (in *Injector) NoiseBoost(t float64) float64 {
	if in == nil {
		return 1
	}
	boost := 1.0
	for i := range in.m.Bursts {
		b := &in.m.Bursts[i]
		if b.Active(t) {
			boost *= pow10(b.SNRDropDB / 20)
		}
	}
	if boost != 1 {
		in.cInterf.Inc()
		in.trc.Emit(trace.KindFault, -1, -1, trace.FaultInterference, -1)
	}
	return boost
}

// Gain returns the linear AGC gain of NIC nic at time t (1 when no step
// has fired).
func (in *Injector) Gain(nic int, t float64) float64 {
	if in == nil {
		return 1
	}
	g := 1.0
	for i := range in.m.AGCSteps {
		s := &in.m.AGCSteps[i]
		if t >= s.T && (s.NIC == -1 || s.NIC == nic) {
			g *= pow10(s.GainDB / 20)
		}
	}
	if g != 1 {
		in.cAGC.Inc()
		in.trc.Emit(trace.KindFault, -1, -1, trace.FaultAGC, int64(nic))
	}
	return g
}

// CorruptFrame draws whether this (NIC, packet) frame is corrupt, and
// whether the corruption is NaN-style. Must be called once per received
// frame, in order.
func (in *Injector) CorruptFrame() (corrupt, nan bool) {
	if in == nil || in.m.Corrupt.Prob <= 0 {
		return false, false
	}
	if in.rng.Float64() < in.m.Corrupt.Prob {
		in.cCorrupt.Inc()
		in.trc.Emit(trace.KindFault, -1, -1, trace.FaultCorrupt, -1)
		return true, in.m.Corrupt.NaN
	}
	return false, false
}

// GarbageSample returns one corrupt sample value (huge amplitude).
func (in *Injector) GarbageSample() (re, im float64) {
	return (in.rng.Float64()*2 - 1) * 1e6, (in.rng.Float64()*2 - 1) * 1e6
}

func pow10(x float64) float64 { return math.Pow(10, x) }
