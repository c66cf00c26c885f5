package rf

import (
	"math"
	"math/rand"

	"rim/internal/floorplan"
	"rim/internal/geom"
)

// Scatterer is a point reflector: a wall edge, furniture, a metal cabinet, a
// person. Reflectivity is a complex gain (reflection coefficient times an
// arbitrary bounce phase). Velocity is non-zero for dynamic scatterers
// (walking humans, §6.2.8 of the paper).
type Scatterer struct {
	Pos          geom.Vec2
	Reflectivity complex128
	Velocity     geom.Vec2
}

// PosAt returns the scatterer position at time t.
func (s Scatterer) PosAt(t float64) geom.Vec2 {
	if s.Velocity == (geom.Vec2{}) {
		return s.Pos
	}
	return s.Pos.Add(s.Velocity.Scale(t))
}

// Environment is a static-or-slowly-varying propagation scene: one AP (with
// NumTxAntennas transmit antennas spaced λ/2 apart), a field of scatterers
// around an area of interest, and an optional floorplan whose walls
// attenuate crossing paths.
type Environment struct {
	cfg   Config
	freqs []float64
	apPos geom.Vec2
	txPos []geom.Vec2
	scat  []Scatterer
	plan  *floorplan.Plan
	// attCache memoizes wall attenuation between a static endpoint
	// (tx antenna or static scatterer, by id) and a quantized receiver
	// cell. Wall-crossing sets change on a scale of meters while the
	// receiver moves millimeters per packet, so caching at attCell
	// granularity removes the dominant cost of floorplan scenes without
	// observable error. Not safe for concurrent use (matching the rest
	// of Environment).
	attCache map[attKey]float64
}

// attCell is the receiver-position quantization for the attenuation cache.
const attCell = 0.25 // meters

type attKey struct {
	src    int // 0..len(txPos)-1 for tx antennas, len(txPos)+i for scatterer i
	cx, cy int32
}

// NewEnvironment builds an environment with scatterers distributed uniformly
// in a disc of cfg.ScatterRadius around areaCenter. plan may be nil for a
// free-space scene.
func NewEnvironment(cfg Config, apPos, areaCenter geom.Vec2, plan *floorplan.Plan) *Environment {
	cfg = cfg.validate()
	rng := rand.New(rand.NewSource(cfg.Seed))
	e := &Environment{
		cfg:      cfg,
		freqs:    cfg.SubcarrierFreqs(),
		apPos:    apPos,
		plan:     plan,
		attCache: make(map[attKey]float64),
	}
	// Tx antennas: a small linear array at the AP, λ/2 spacing.
	lam := cfg.Wavelength()
	for i := 0; i < cfg.NumTxAntennas; i++ {
		off := geom.Vec2{X: lam / 2 * float64(i), Y: 0}
		e.txPos = append(e.txPos, apPos.Add(off))
	}
	// Scatterers around the area of interest. Rayleigh-distributed
	// reflectivity magnitude with uniform bounce phase.
	for i := 0; i < cfg.NumScatterers; i++ {
		r := cfg.ScatterRadius * math.Sqrt(rng.Float64())
		th := rng.Float64() * 2 * math.Pi
		mag := math.Hypot(rng.NormFloat64(), rng.NormFloat64()) / math.Sqrt2
		ph := rng.Float64() * 2 * math.Pi
		s, c := math.Sincos(ph)
		e.scat = append(e.scat, Scatterer{
			Pos:          areaCenter.Add(geom.FromPolar(r, th)),
			Reflectivity: complex(mag*c, mag*s),
		})
	}
	return e
}

// illumSrc is the attCache source id of the diffuse-illumination endpoint.
const illumSrc = -1

// illumAt returns the diffuse illumination amplitude of the scatterer field
// around receiver position rx: the energy the AP delivers into that
// neighbourhood (direct-path spreading plus wall attenuation, cached per
// cell). Indoor NLOS-rich spaces behave like reverberant rooms whose
// diffuse field is quasi-isotropic — individual scatterers re-radiate
// energy that has bounced many times, so their excitation barely depends on
// their own bearing to the AP. Driving every scatterer with the local
// illumination level reproduces that isotropy (and with it the sharp,
// J0-like TRRS spatial decay the paper relies on) and keeps the
// diffuse-to-LOS ratio consistent as the receiver moves through wall
// shadows; the per-path delays keep the true AP→scatterer→receiver
// geometry.
func (e *Environment) illumAt(rx geom.Vec2) float64 {
	d := e.apPos.Dist(rx)
	if d < 1 {
		d = 1
	}
	return e.cachedWallAmplitude(illumSrc, e.apPos, rx) / d
}

// Config returns the environment configuration (with defaults filled in).
func (e *Environment) Config() Config { return e.cfg }

// Scatterers exposes the scatterer field (read-only by convention).
func (e *Environment) Scatterers() []Scatterer { return e.scat }

// SetDynamicScatterers gives the n scatterers closest to center a random
// walking velocity of the given speed, emulating people moving around the
// experiment (§6.2.8). Pass n=0 to freeze the scene again.
func (e *Environment) SetDynamicScatterers(n int, speed float64, center geom.Vec2, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// Order scatterer indices by distance to center (selection by partial
	// sort is overkill for tens of scatterers).
	idx := make([]int, len(e.scat))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if e.scat[idx[j]].Pos.Dist(center) < e.scat[idx[i]].Pos.Dist(center) {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	for i := range e.scat {
		e.scat[i].Velocity = geom.Vec2{}
	}
	if n > len(idx) {
		n = len(idx)
	}
	for _, i := range idx[:n] {
		th := rng.Float64() * 2 * math.Pi
		e.scat[i].Velocity = geom.FromPolar(speed, th)
	}
}

// wallAmplitude returns the amplitude factor for wall crossings between a
// and b (1.0 when no floorplan is attached).
func (e *Environment) wallAmplitude(a, b geom.Vec2) float64 {
	if e.plan == nil {
		return 1
	}
	lossDB, _ := e.plan.PathLossDB(a, b)
	return dbToAmplitude(lossDB)
}

// cachedWallAmplitude memoizes wallAmplitude for a static source endpoint
// (identified by src) against the quantized cell containing rx.
func (e *Environment) cachedWallAmplitude(src int, srcPos, rx geom.Vec2) float64 {
	if e.plan == nil {
		return 1
	}
	k := attKey{
		src: src,
		cx:  int32(math.Floor(rx.X / attCell)),
		cy:  int32(math.Floor(rx.Y / attCell)),
	}
	if v, ok := e.attCache[k]; ok {
		return v
	}
	center := geom.Vec2{
		X: (float64(k.cx) + 0.5) * attCell,
		Y: (float64(k.cy) + 0.5) * attCell,
	}
	v := e.wallAmplitude(srcPos, center)
	e.attCache[k] = v
	return v
}

// IsLOS reports whether the direct path from the AP to p is unobstructed.
func (e *Environment) IsLOS(p geom.Vec2) bool {
	if e.plan == nil {
		return true
	}
	return e.plan.IsLOS(e.apPos, p)
}

// CFR synthesizes the channel frequency response between transmit antenna tx
// and a receive antenna at world position rx, at simulation time t, writing
// one complex value per subcarrier into out (len(out) must equal
// NumSubcarriers). The channel is
//
//	H_k = Σ_paths a_l · exp(-j 2π f_k τ_l)
//
// over the LOS path and one single-bounce path per scatterer, where a_l
// combines free-space spreading (1/d per segment), reflectivity, and wall
// attenuation, and τ_l is the path propagation delay.
//
// Implementation note: for each path the per-subcarrier phase advances by a
// constant step (uniform tone spacing), so the loop uses one complex
// multiply per tone instead of a trig call.
func (e *Environment) CFR(rx geom.Vec2, tx int, t float64, out []complex128) {
	if len(out) != e.cfg.NumSubcarriers {
		panic("rf: CFR output length mismatch")
	}
	for k := range out {
		out[k] = 0
	}
	txp := e.txPos[tx]
	f0 := e.freqs[0]
	df := e.cfg.SubcarrierSpacing()

	addPath := func(amp complex128, dist float64) {
		tau := dist / SpeedOfLight
		ph0 := -2 * math.Pi * f0 * tau
		s0, c0 := math.Sincos(ph0)
		rot := complex(c0, s0) * amp
		sd, cd := math.Sincos(-2 * math.Pi * df * tau)
		step := complex(cd, sd)
		for k := range out {
			out[k] += rot
			rot *= step
		}
	}

	// LOS path.
	dLOS := txp.Dist(rx)
	if dLOS < 0.1 {
		dLOS = 0.1
	}
	ampLOS := e.cfg.LOSGain / dLOS * e.cachedWallAmplitude(tx, txp, rx)
	addPath(complex(ampLOS, 0), dLOS)

	// Single-bounce scatterer paths.
	nTx := len(e.txPos)
	illum := e.illumAt(rx)
	for si, s := range e.scat {
		sp := s.PosAt(t)
		d1 := txp.Dist(sp)
		d2 := sp.Dist(rx)
		if d1 < 0.1 {
			d1 = 0.1
		}
		if d2 < 0.1 {
			d2 = 0.1
		}
		var att float64
		if s.Velocity == (geom.Vec2{}) {
			att = e.cachedWallAmplitude(nTx+si, sp, rx)
		} else {
			att = e.wallAmplitude(sp, rx)
		}
		// Diffuse illumination (see illumAt) times local walls between
		// scatterer and receiver, with a softened 1/sqrt(d2+2)
		// re-radiation term: the +2 m knee keeps a scatterer that happens
		// to sit right next to the receiver from dominating the profile.
		// The path *delay* still uses the full AP→scatterer→receiver
		// geometry, so the frequency-selective structure stays faithful.
		amp := s.Reflectivity * complex(illum*att/math.Sqrt(d2+2), 0)
		addPath(amp, d1+d2)
	}
}

// SnapshotAll synthesizes CFRs for every tx antenna at once, returning
// H[tx][k]. A convenience for tests and the CSI layer.
func (e *Environment) SnapshotAll(rx geom.Vec2, t float64) [][]complex128 {
	out := make([][]complex128, e.cfg.NumTxAntennas)
	for tx := range out {
		out[tx] = make([]complex128, e.cfg.NumSubcarriers)
		e.CFR(rx, tx, t, out[tx])
	}
	return out
}
