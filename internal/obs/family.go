package obs

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DefMaxChildren is the default per-family cardinality cap: the number of
// distinct label sets a family holds live before LRU eviction starts
// folding the coldest children into the reserved overflow child.
const DefMaxChildren = 512

// OverflowLabel is the reserved label value of a family's overflow child:
// every evicted (or Forgot) label set's counts end up under
// {label="other", ...}. Callers must not use it as a real label value.
const OverflowLabel = "other"

// FamilyOpts parameterizes a labeled metric family.
type FamilyOpts struct {
	// Labels are the label names, in rendering order (required, non-empty).
	Labels []string
	// MaxChildren caps the live label-set cardinality (default
	// DefMaxChildren). The overflow child is not counted against the cap.
	MaxChildren int
	// Bounds are the bucket bounds for HistogramFamily children (nil
	// selects DefLatencyBuckets). Ignored by counter and gauge families.
	Bounds []float64
}

// metric is the per-kind behaviour a Family needs from its children;
// *Counter, *Gauge and *Histogram each carry their own (obs.go).
type metric[T any] interface {
	comparable
	collector
	// child returns a fresh metric of the same kind and buckets.
	child() T
	// foldInto retires the metric into the family's overflow child: its
	// state moves there and later updates through the handle follow.
	foldInto(other T)
	// events is what the metric has counted — a counter's value, a
	// histogram's observation count, 0 for a gauge. It sums into Total,
	// and the overflow child renders only once it holds some.
	events() uint64
}

// Family is a labeled metric: With(values...) hands out one nil-safe child
// per label set from a bounded map of children in LRU order, with a
// reserved overflow child absorbing evictions. The cardinality contract is
// hard: a family never holds more than MaxChildren live children, whatever
// label flood hits it, so the registry cannot be grown without bound by
// adversarial or runaway label values. A nil family (from a nil registry)
// hands out nil children, keeping disabled instrumentation free.
type Family[T metric[T]] struct {
	name      string
	labels    []string
	max       int
	evictions *Counter // shared rim_obs_family_evictions_total
	other     T        // the overflow child, fixed at construction

	mu       sync.Mutex
	children map[string]*list.Element // key -> element whose Value is *famChild[T]
	lru      *list.List               // front = most recently resolved
}

// CounterFamily is a labeled counter: evicted and Forgot children fold
// their counts into the overflow child, and their stale handles keep
// counting there.
type CounterFamily = Family[*Counter]

// GaugeFamily is a labeled gauge. Evicted gauge children detach (their
// instantaneous values cannot be merged into the overflow child); the
// overflow gauge exists only to keep the family shape uniform and is never
// rendered.
type GaugeFamily = Family[*Gauge]

// HistogramFamily is a labeled histogram; children share the family's
// bucket bounds, which is what makes eviction folding exact.
type HistogramFamily = Family[*Histogram]

// famChild is one live label set.
type famChild[T any] struct {
	key    string
	values []string
	metric T
}

// famKey joins label values into the child map key. 0x1f (ASCII unit
// separator) never appears in sane label values; a value containing it
// would only alias two pathological label sets, never corrupt state.
func famKey(values []string) string { return strings.Join(values, "\x1f") }

func newFamily[T metric[T]](name string, o FamilyOpts, other T, evictions *Counter) *Family[T] {
	if len(o.Labels) == 0 {
		panic(fmt.Sprintf("obs: family %q needs at least one label", name))
	}
	for _, l := range o.Labels {
		if !validName.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: family %q has invalid label name %q", name, l))
		}
	}
	if o.MaxChildren <= 0 {
		o.MaxChildren = DefMaxChildren
	}
	return &Family[T]{
		name:      name,
		labels:    append([]string(nil), o.Labels...),
		max:       o.MaxChildren,
		evictions: evictions,
		other:     other,
		children:  make(map[string]*list.Element),
		lru:       list.New(),
	}
}

// With returns the child for the given label values (one value per family
// label, same order), creating it — and evicting the LRU child into the
// overflow when at the cap — on first use. Resolve once per entity and
// hold the handle; With locks the family.
func (f *Family[T]) With(values ...string) (m T) {
	if f == nil {
		return m
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: family %q got %d label values, want %d", f.name, len(values), len(f.labels)))
	}
	key := famKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if el, ok := f.children[key]; ok {
		f.lru.MoveToFront(el)
		return el.Value.(*famChild[T]).metric
	}
	for len(f.children) >= f.max {
		f.evictLocked()
	}
	ch := &famChild[T]{key: key, values: append([]string(nil), values...), metric: f.other.child()}
	f.children[key] = f.lru.PushFront(ch)
	return ch.metric
}

// Get returns the live child for the label values without creating one or
// touching the LRU order (read-side lookups must not churn the eviction
// order or fabricate children for dead label sets).
func (f *Family[T]) Get(values ...string) (m T, ok bool) {
	if f == nil {
		return m, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	el, ok := f.children[famKey(values)]
	if !ok {
		return m, false
	}
	return el.Value.(*famChild[T]).metric, true
}

// evictLocked folds the least-recently-resolved child into the overflow
// child and redirects its live handles there, so a handle resolved before
// the eviction keeps counting — into "other" — instead of into a series
// nobody renders.
func (f *Family[T]) evictLocked() {
	el := f.lru.Back()
	if el == nil {
		return
	}
	f.lru.Remove(el)
	ch := el.Value.(*famChild[T])
	delete(f.children, ch.key)
	ch.metric.foldInto(f.other)
	f.evictions.Inc()
}

// Forget retires one label set deliberately (e.g. a session closed): its
// state folds into the overflow child — totals stay monotone across the
// scrape — and the slot frees up without counting as a cap eviction.
func (f *Family[T]) Forget(values ...string) {
	if f == nil {
		return
	}
	key := famKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	el, ok := f.children[key]
	if !ok {
		return
	}
	f.lru.Remove(el)
	delete(f.children, key)
	el.Value.(*famChild[T]).metric.foldInto(f.other)
}

// Each visits every live child, key-sorted, and then the overflow child,
// whose label values are all OverflowLabel. fn runs outside the family
// lock.
func (f *Family[T]) Each(fn func(values []string, m T)) {
	if f == nil {
		return
	}
	f.mu.Lock()
	kids := make([]*famChild[T], 0, len(f.children))
	for _, el := range f.children {
		kids = append(kids, el.Value.(*famChild[T]))
	}
	f.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool { return kids[i].key < kids[j].key })
	for _, ch := range kids {
		fn(ch.values, ch.metric)
	}
	ov := make([]string, len(f.labels))
	for i := range ov {
		ov[i] = OverflowLabel
	}
	fn(ov, f.other)
}

// Other returns the reserved overflow child.
func (f *Family[T]) Other() (m T) {
	if f != nil {
		m = f.other
	}
	return m
}

// Total sums the events of every live child plus the overflow: for a
// counter family, the family-wide reading a fleet dashboard or an
// unlabeled predecessor metric would report; for a histogram family, its
// observation count; 0 for a gauge family.
func (f *Family[T]) Total() uint64 {
	var t uint64
	f.Each(func(_ []string, m T) { t += m.events() })
	return t
}

// Len returns the live child count (the overflow child excluded).
func (f *Family[T]) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.children)
}

// collect appends one Metric per live child (key-sorted, overflow last).
// The overflow child is rendered only once it has absorbed something, so
// unflooded families stay clean in the exposition.
func (f *Family[T]) collect(out []Metric, name, help string, _ map[string]string) []Metric {
	f.Each(func(values []string, m T) {
		if m == f.other && m.events() == 0 {
			return
		}
		labels := make(map[string]string, len(f.labels))
		for i, l := range f.labels {
			labels[l] = values[i]
		}
		out = m.collect(out, name, help, labels)
	})
	return out
}

// registerFamily returns the family registered under name, creating it
// around the overflow child other makes on first use. Like the plain
// constructors it panics on a kind mismatch; it also panics when
// re-registered with different labels. A nil registry returns a nil
// (fully no-op) family.
func registerFamily[T metric[T]](r *Registry, name, help string, o FamilyOpts, other func() T) *Family[T] {
	// The shared eviction counter, one per registry covering every family
	// in it, registers first: register holds the registry lock.
	ev := r.Counter("rim_obs_family_evictions_total",
		"family children LRU-evicted into their overflow child at the cardinality cap")
	f := register(r, name, help, func() *Family[T] { return newFamily(name, o, other(), ev) })
	if f != nil {
		f.checkLabels(o.Labels)
	}
	return f
}

// CounterFamily returns the labeled counter family registered under name.
func (r *Registry) CounterFamily(name, help string, o FamilyOpts) *CounterFamily {
	return registerFamily(r, name, help, o, func() *Counter { return new(Counter) })
}

// GaugeFamily returns the labeled gauge family registered under name.
func (r *Registry) GaugeFamily(name, help string, o FamilyOpts) *GaugeFamily {
	return registerFamily(r, name, help, o, func() *Gauge { return new(Gauge) })
}

// HistogramFamily returns the labeled histogram family registered under
// name, creating it with o.Bounds (nil selects DefLatencyBuckets) on first
// use. Bounds follow the same rules as Registry.Histogram.
func (r *Registry) HistogramFamily(name, help string, o FamilyOpts) *HistogramFamily {
	return registerFamily(r, name, help, o, func() *Histogram { return newHistogram(name, o.Bounds) })
}

// checkLabels enforces that re-registrations agree on the label schema.
func (f *Family[T]) checkLabels(labels []string) {
	if len(labels) != len(f.labels) {
		panic(fmt.Sprintf("obs: family %q re-registered with %d labels, want %d", f.name, len(labels), len(f.labels)))
	}
	for i, l := range labels {
		if l != f.labels[i] {
			panic(fmt.Sprintf("obs: family %q re-registered with label %q, want %q", f.name, l, f.labels[i]))
		}
	}
}
