package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rim_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Get-or-create returns the same handle.
	if r.Counter("rim_test_total", "a counter") != c {
		t.Error("Counter did not return the registered handle")
	}
	g := r.Gauge("rim_test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("rim_x_total", "")
	g := r.Gauge("rim_x", "")
	h := r.Timer("rim_x_seconds", "")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metric handles")
	}
	// All of these must be no-ops, not panics.
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metric reads must be zero")
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("nil histogram quantile must be NaN")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot must be nil")
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rim_lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 5.56; math.Abs(got-want) > 1e-12 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Snapshot buckets must be cumulative with the +Inf bucket = count.
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d metrics, want 1", len(snap))
	}
	m := snap[0]
	wantCum := []uint64{2, 3, 4, 5}
	if len(m.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %d, want %d", len(m.Buckets), len(wantCum))
	}
	for i, b := range m.Buckets {
		if b.CumulativeCount != wantCum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.CumulativeCount, wantCum[i])
		}
	}
	if !math.IsInf(m.Buckets[3].UpperBound, 1) {
		t.Error("last bucket bound must be +Inf")
	}
	// Median lands in the (0.01, 0.1] bucket.
	q := h.Quantile(0.5)
	if q <= 0.01 || q > 0.1 {
		t.Errorf("P50 = %v, want in (0.01, 0.1]", q)
	}
	// P99 lands beyond the finite buckets and clamps to the top bound.
	if got := h.Quantile(0.99); got != 1 {
		t.Errorf("P99 = %v, want clamp to 1", got)
	}
}

// TestQuantileExplicitInfBucket is the regression test for quantile
// estimation on histograms registered with an explicit +Inf bound: the
// interpolation used to return +Inf (or NaN at frac 0) instead of clamping
// to the last finite boundary like the implicit overflow bucket does.
func TestQuantileExplicitInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rim_inf_seconds", "explicit +Inf bound", []float64{0.1, 1, math.Inf(1)})
	for _, v := range []float64{0.05, 0.5, 50, 500} {
		h.Observe(v)
	}
	// Half the observations overflow the finite bounds; every upper
	// quantile must clamp to the last finite boundary, never +Inf or NaN.
	for _, q := range []float64{0.75, 0.9, 0.99, 1} {
		got := h.Quantile(q)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("Quantile(%v) = %v, want finite clamp", q, got)
		}
		if got != 1 {
			t.Errorf("Quantile(%v) = %v, want clamp to last finite bound 1", q, got)
		}
	}
	// Lower quantiles still interpolate inside finite buckets.
	if p25 := h.Quantile(0.25); p25 <= 0 || p25 > 0.1 {
		t.Errorf("P25 = %v, want in (0, 0.1]", p25)
	}
	// The stripped bound must not double up the overflow bucket in the
	// exposition: snapshot ends with exactly one +Inf bucket.
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d metrics, want 1", len(snap))
	}
	bs := snap[0].Buckets
	if len(bs) != 3 { // 0.1, 1, +Inf
		t.Fatalf("buckets = %d, want 3 (trailing +Inf bound stripped)", len(bs))
	}
	if !math.IsInf(bs[2].UpperBound, 1) || bs[2].CumulativeCount != 4 {
		t.Errorf("overflow bucket = %+v, want +Inf with count 4", bs[2])
	}
	if math.IsInf(bs[1].UpperBound, 1) {
		t.Error("second bucket is +Inf: explicit bound not stripped")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("rim_dual", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("rim_dual", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name must panic")
		}
	}()
	r.Counter("rim metrics with spaces", "")
}

// TestConcurrentUse hammers one registry from many goroutines; run under
// -race in CI.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("rim_conc_total", "")
			h := r.Timer("rim_conc_seconds", "")
			ga := r.Gauge("rim_conc", "")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				ga.Add(1)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("rim_conc_total", "").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Timer("rim_conc_seconds", "").Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestLoggerDefaults(t *testing.T) {
	if Logger() != NopLogger() {
		t.Error("default package logger must be the no-op logger")
	}
	l := NewTextLogger(nopWriter{}, -8)
	SetLogger(l)
	if Logger() != l {
		t.Error("SetLogger did not take")
	}
	SetLogger(nil)
	if Logger() != NopLogger() {
		t.Error("SetLogger(nil) must restore the no-op logger")
	}
	// The no-op logger must swallow records without panicking.
	NopLogger().Error("nothing to see", "k", "v")
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
