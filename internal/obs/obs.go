// Package obs is RIM's dependency-free observability substrate: a metrics
// registry of atomic counters, gauges and fixed-bucket latency histograms,
// structured logging helpers (log/slog), and HTTP exposition in both
// expvar and Prometheus text format plus a pprof-equipped debug mux (see
// http.go). Pipeline stages are timed into the histograms by trace.Stage,
// which feeds the same duration to the stage's trace lane.
//
// The package is built for hot paths: every metric handle is nil-safe, so
// un-instrumented runs (a nil *Registry) pay only a nil check per
// operation — no time.Now() calls, no allocation, no atomics. Pipelines
// resolve their handles once at construction and the per-packet cost of
// disabled observability stays far below 1% of a streaming hop (guarded by
// TestObsOverheadGuard and BENCH_obs.json at the repo root).
//
// Metric naming follows the Prometheus conventions: `rim_` prefix,
// `_total` suffix on counters, `_seconds` on latency histograms. The full
// metric table lives in DESIGN.md ("Observability").
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// validName is the Prometheus metric name charset.
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Counter is a monotonically increasing counter. All methods are safe on a
// nil receiver (no-ops), so disabled instrumentation costs one nil check.
type Counter struct {
	v atomic.Uint64
	// fwd, when set, redirects increments into a family's overflow child:
	// a label-set child evicted past its family's cardinality cap keeps
	// counting — into "other" — instead of silently losing live handles'
	// increments (see family.go).
	fwd atomic.Pointer[Counter]
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n is unsigned: counters only go up).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	if f := c.fwd.Load(); f != nil {
		f.v.Add(n)
		return
	}
	c.v.Add(n)
	// A fold that redirected this child after the load above may already
	// have drained it; move what the add left behind into the target.
	if f := c.fwd.Load(); f != nil {
		f.v.Add(c.v.Swap(0))
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) child() *Counter { return new(Counter) }

func (c *Counter) foldInto(other *Counter) {
	c.fwd.Store(other)
	other.v.Add(c.v.Swap(0))
}

func (c *Counter) events() uint64 { return c.Value() }

func (c *Counter) collect(out []Metric, name, help string, labels map[string]string) []Metric {
	return append(out, Metric{Name: name, Help: help, Type: "counter", Labels: labels, Value: float64(c.Value())})
}

// Gauge is a settable instantaneous value. Nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64
	// detached marks a gauge child evicted from its family: instantaneous
	// values cannot be meaningfully merged into an overflow child the way
	// counts can, so an evicted gauge's handle simply goes quiet.
	detached atomic.Bool
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || g.detached.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (CAS loop; gauges move both ways).
func (g *Gauge) Add(delta float64) {
	if g == nil || g.detached.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) child() *Gauge { return new(Gauge) }

// foldInto detaches the gauge: an instantaneous value cannot be merged
// into the overflow child, so the overflow gauge stays 0 and unrendered.
func (g *Gauge) foldInto(*Gauge) { g.detached.Store(true) }

// events is 0: a gauge counts nothing.
func (g *Gauge) events() uint64 { return 0 }

func (g *Gauge) collect(out []Metric, name, help string, labels map[string]string) []Metric {
	return append(out, Metric{Name: name, Help: help, Type: "gauge", Labels: labels, Value: g.Value()})
}

// Histogram is a fixed-bucket distribution (Prometheus semantics: bounds
// are inclusive upper edges, +Inf is implicit). Observations are atomic;
// snapshots are not a consistent cut across buckets/sum, which is the
// standard (and harmless) relaxation for monitoring. Nil-safe.
type Histogram struct {
	bounds   []float64 // ascending upper bounds, +Inf excluded
	counts   []atomic.Uint64
	infCount atomic.Uint64
	sumBits  atomic.Uint64 // float64 bits, CAS-added
	count    atomic.Uint64
	// fwd redirects observations into a family's overflow child after
	// eviction, like Counter.fwd (the overflow child itself is never
	// evicted, so chains cannot form).
	fwd atomic.Pointer[Histogram]
}

// DefLatencyBuckets are the default stage-latency bucket bounds in
// seconds: 10 µs to 2.5 s, roughly ×2.5 apart — wide enough for a full
// batch rebuild, fine enough to resolve an incremental hop.
var DefLatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
	250e-3, 500e-3, 1, 2.5,
}

// newHistogram builds an empty histogram over bounds (nil selects
// DefLatencyBuckets), which must be strictly ascending; name only labels
// the panic.
func newHistogram(name string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	// The implicit overflow bucket is already +Inf; an explicit trailing
	// +Inf bound would both double it up and poison Quantile's
	// interpolation (lower + (Inf-lower)*frac is Inf, or NaN at frac 0).
	if n := len(bounds); n > 0 && math.IsInf(bounds[n-1], 1) {
		bounds = bounds[:n-1]
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bucket bounds not ascending at %d", name, i))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// child shares h's bounds, which is what makes folding into the overflow
// child exact.
func (h *Histogram) child() *Histogram {
	return &Histogram{bounds: h.bounds, counts: make([]atomic.Uint64, len(h.bounds))}
}

func (h *Histogram) foldInto(other *Histogram) {
	h.fwd.Store(other)
	other.absorb(h)
}

func (h *Histogram) events() uint64 { return h.Count() }

// collect appends the cumulative buckets plus the mandatory +Inf overflow
// bucket.
func (h *Histogram) collect(out []Metric, name, help string, labels map[string]string) []Metric {
	m := Metric{Name: name, Help: help, Type: "histogram", Labels: labels, Count: h.Count(), Sum: h.Sum()}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		m.Buckets = append(m.Buckets, Bucket{UpperBound: b, CumulativeCount: cum})
	}
	cum += h.infCount.Load()
	m.Buckets = append(m.Buckets, Bucket{UpperBound: math.Inf(1), CumulativeCount: cum})
	return append(out, m)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if f := h.fwd.Load(); f != nil {
		f.Observe(v)
		return
	}
	// Binary search is overkill for <32 buckets; linear scan is
	// branch-predictor friendly and allocation-free.
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.infCount.Add(1)
	}
	h.count.Add(1)
	h.addSum(v)
	// As in Counter.Add: a fold racing this observation may have drained
	// the child before it landed.
	if f := h.fwd.Load(); f != nil {
		f.absorb(h)
	}
}

// addSum CAS-adds v into the running sum.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// absorb drains src's buckets, counts and sum into h (family eviction:
// both histograms share bucket bounds, as children of one family always
// do). Observations racing the drain may be split across src and h for one
// snapshot, the usual monitoring relaxation; nothing is double-counted.
func (h *Histogram) absorb(src *Histogram) {
	for i := range src.counts {
		h.counts[i].Add(src.counts[i].Swap(0))
	}
	h.infCount.Add(src.infCount.Swap(0))
	h.count.Add(src.count.Swap(0))
	h.addSum(math.Float64frombits(src.sumBits.Swap(0)))
}

// CountAtOrBelow returns the number of observations recorded in buckets
// whose upper bound is <= le — the "good events" reading an SLO needs from
// a latency histogram (le should be one of the bucket bounds; an
// in-between le conservatively excludes the straddling bucket). A +Inf le
// returns Count(). Nil-safe (0).
func (h *Histogram) CountAtOrBelow(le float64) uint64 {
	if h == nil {
		return 0
	}
	if math.IsInf(le, 1) {
		return h.count.Load()
	}
	var cum uint64
	for i, b := range h.bounds {
		if b > le {
			break
		}
		cum += h.counts[i].Load()
	}
	return cum
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts by
// linear interpolation inside the located bucket, the same estimate
// Prometheus' histogram_quantile computes. Returns NaN when empty; values
// landing in the +Inf bucket clamp to the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count.Load() == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum+c) >= rank && c > 0 {
			if math.IsInf(b, 1) {
				// Defensive: a +Inf bound (possible on histograms built
				// before registration-time stripping) cannot be
				// interpolated into; clamp to the last finite boundary,
				// matching the overflow bucket's behavior below.
				return lower
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (b-lower)*frac
		}
		cum += c
		lower = b
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return math.NaN()
}

// Registry is a named collection of metrics. The zero value is ready to
// use; a nil *Registry is valid everywhere and hands out nil metric
// handles, making every downstream operation a no-op.
//
// Registry contains a mutex and must not be copied after first use
// (enforced repo-wide by `go vet -copylocks`).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]registered
}

// registered is one named entry: a plain metric or a labeled family.
type registered struct {
	help string
	c    collector
}

// collector is what a registry entry renders through: collect appends
// one Metric per series. A plain metric renders under the given labels
// (nil at the registry); a family supplies each child's own.
type collector interface {
	collect(out []Metric, name, help string, labels map[string]string) []Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// register returns the metric registered under name, creating it with mk
// on first use. Re-registering a name as a different metric kind panics
// (programmer error). A nil registry returns the zero (nil, no-op) M.
func register[M collector](r *Registry, name, help string, mk func() M) M {
	var m M
	if r == nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		if m, ok = e.c.(M); !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T, not %T", name, e.c, m))
		}
		return m
	}
	if !validName.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if r.metrics == nil {
		r.metrics = make(map[string]registered)
	}
	m = mk()
	r.metrics[name] = registered{help: help, c: m}
	return m
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, help, func() *Counter { return new(Counter) })
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, help, func() *Gauge { return new(Gauge) })
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (nil bounds select
// DefLatencyBuckets). Bounds must be strictly ascending.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return register(r, name, help, func() *Histogram { return newHistogram(name, bounds) })
}

// Timer is the convenience for stage-latency histograms: a histogram with
// the default latency buckets.
func (r *Registry) Timer(name, help string) *Histogram {
	return r.Histogram(name, help, nil)
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the inclusive upper edge (+Inf for the last bucket).
	UpperBound float64 `json:"-"`
	// CumulativeCount counts observations <= UpperBound.
	CumulativeCount uint64 `json:"count"`
}

// bucketJSON is Bucket's wire form: encoding/json rejects +Inf, so the
// upper edge travels as a string — the same convention Prometheus uses for
// the le label.
type bucketJSON struct {
	UpperBound      string `json:"le"`
	CumulativeCount uint64 `json:"count"`
}

// MarshalJSON encodes the bucket with its upper edge as a string ("+Inf"
// for the overflow bucket).
func (b Bucket) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketJSON{
		UpperBound:      formatFloat(b.UpperBound),
		CumulativeCount: b.CumulativeCount,
	})
}

// UnmarshalJSON decodes the string upper edge back into a float64.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var j bucketJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	le, err := strconv.ParseFloat(j.UpperBound, 64)
	if err != nil {
		return fmt.Errorf("obs: bucket le %q: %w", j.UpperBound, err)
	}
	b.UpperBound = le
	b.CumulativeCount = j.CumulativeCount
	return nil
}

// Metric is one metric's point-in-time snapshot (JSON-marshalable for
// /healthz and expvar).
type Metric struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	Type string `json:"type"` // "counter" | "gauge" | "histogram"
	// Labels identifies one child of a labeled family (nil on plain
	// metrics). Children of one family share Name and Type and appear as
	// consecutive snapshot entries.
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries counter and gauge readings.
	Value float64 `json:"value,omitempty"`
	// Count/Sum/Buckets carry histogram readings.
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns every registered metric's current reading, sorted by
// name. Nil registries return nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	entries := make([]registered, len(names))
	for i, n := range names {
		entries[i] = r.metrics[n]
	}
	r.mu.Unlock()

	out := make([]Metric, 0, len(names))
	for i, e := range entries {
		out = e.c.collect(out, names[i], e.help, nil)
	}
	return out
}
