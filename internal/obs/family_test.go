package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterFamilyBasics(t *testing.T) {
	r := NewRegistry()
	cf := r.CounterFamily("rim_test_frames_total", "frames", FamilyOpts{Labels: []string{"session"}})
	cf.With("a").Add(3)
	cf.With("b").Inc()
	cf.With("a").Inc() // same label set resolves the same child
	if got, _ := cf.Get("a"); got.Value() != 4 {
		t.Fatalf("child a = %d, want 4", got.Value())
	}
	if cf.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cf.Len())
	}
	if cf.Total() != 5 {
		t.Fatalf("Total = %d, want 5", cf.Total())
	}
	if _, ok := cf.Get("missing"); ok {
		t.Fatal("Get fabricated a child")
	}
	if cf.Len() != 2 {
		t.Fatal("Get created a child")
	}
	// Re-registration returns the same family.
	if cf2 := r.CounterFamily("rim_test_frames_total", "frames", FamilyOpts{Labels: []string{"session"}}); cf2 != cf {
		t.Fatal("re-registration returned a different family")
	}
}

func TestFamilyNilSafety(t *testing.T) {
	var r *Registry
	cf := r.CounterFamily("x_total", "", FamilyOpts{Labels: []string{"s"}})
	gf := r.GaugeFamily("y", "", FamilyOpts{Labels: []string{"s"}})
	hf := r.HistogramFamily("z_seconds", "", FamilyOpts{Labels: []string{"s"}})
	// Every path must be a no-op, not a panic.
	cf.With("a").Inc()
	cf.Forget("a")
	cf.Each(func([]string, *Counter) { t.Fatal("nil family has children") })
	if cf.Total() != 0 || cf.Len() != 0 || cf.Other() != nil {
		t.Fatal("nil counter family not inert")
	}
	gf.With("a").Set(1)
	gf.Forget("a")
	if gf.Len() != 0 {
		t.Fatal("nil gauge family not inert")
	}
	hf.With("a").Observe(1)
	hf.Forget("a")
	if hf.Len() != 0 || hf.Other() != nil {
		t.Fatal("nil histogram family not inert")
	}
}

func TestCounterFamilyEvictionFoldsIntoOther(t *testing.T) {
	r := NewRegistry()
	cf := r.CounterFamily("rim_test_evict_total", "", FamilyOpts{Labels: []string{"session"}, MaxChildren: 2})
	a := cf.With("a")
	a.Add(10)
	cf.With("b").Add(20)
	cf.With("c").Add(30) // evicts a (LRU)
	if cf.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after eviction", cf.Len())
	}
	if _, ok := cf.Get("a"); ok {
		t.Fatal("evicted child still live")
	}
	if got := cf.Other().Value(); got != 10 {
		t.Fatalf("other = %d, want 10 (a's count)", got)
	}
	// The stale handle must keep counting — into other, not into the void.
	a.Add(5)
	if got := cf.Other().Value(); got != 15 {
		t.Fatalf("other = %d, want 15 after post-eviction Add on stale handle", got)
	}
	if cf.Total() != 65 {
		t.Fatalf("Total = %d, want 65 — counts lost across eviction", cf.Total())
	}
	if ev := r.Counter("rim_obs_family_evictions_total", "").Value(); ev != 1 {
		t.Fatalf("evictions counter = %d, want 1", ev)
	}
}

func TestCounterFamilyLRUOrder(t *testing.T) {
	r := NewRegistry()
	cf := r.CounterFamily("rim_test_lru_total", "", FamilyOpts{Labels: []string{"s"}, MaxChildren: 2})
	cf.With("a").Inc()
	cf.With("b").Inc()
	cf.With("a").Inc() // touch a: b becomes LRU
	cf.With("c").Inc() // evicts b, not a
	if _, ok := cf.Get("a"); !ok {
		t.Fatal("recently-used child a was evicted")
	}
	if _, ok := cf.Get("b"); ok {
		t.Fatal("LRU child b survived past the cap")
	}
}

func TestHistogramFamilyEvictionAbsorbs(t *testing.T) {
	r := NewRegistry()
	hf := r.HistogramFamily("rim_test_lag_seconds", "", FamilyOpts{
		Labels: []string{"session"}, MaxChildren: 1, Bounds: []float64{0.1, 1}})
	a := hf.With("a")
	a.Observe(0.05)
	a.Observe(0.5)
	a.Observe(5)
	hf.With("b") // evicts a
	o := hf.Other()
	if o.Count() != 3 {
		t.Fatalf("other count = %d, want 3", o.Count())
	}
	if got := o.Sum(); got < 5.54 || got > 5.56 {
		t.Fatalf("other sum = %v, want 5.55", got)
	}
	if got := o.CountAtOrBelow(0.1); got != 1 {
		t.Fatalf("other <=0.1 = %d, want 1 — bucket counts lost in fold", got)
	}
	// Stale handle redirects.
	a.Observe(0.05)
	if o.Count() != 4 {
		t.Fatalf("other count = %d, want 4 after redirected Observe", o.Count())
	}
}

func TestGaugeFamilyEvictionDetaches(t *testing.T) {
	r := NewRegistry()
	gf := r.GaugeFamily("rim_test_depth", "", FamilyOpts{Labels: []string{"s"}, MaxChildren: 1})
	a := gf.With("a")
	a.Set(7)
	gf.With("b").Set(9) // evicts a
	a.Set(100)          // must not resurrect or leak anywhere
	var series []string
	gf.Each(func(values []string, g *Gauge) {
		series = append(series, fmt.Sprintf("%s=%v", values[0], g.Value()))
	})
	// Only the live child and the (zero, unfolded) overflow child remain.
	want := []string{"b=9", "other=0"}
	if len(series) != 2 || series[0] != want[0] || series[1] != want[1] {
		t.Fatalf("series = %v, want %v", series, want)
	}
}

func TestFamilyForget(t *testing.T) {
	r := NewRegistry()
	cf := r.CounterFamily("rim_test_forget_total", "", FamilyOpts{Labels: []string{"s"}})
	c := cf.With("gone")
	c.Add(42)
	cf.Forget("gone")
	if cf.Len() != 0 {
		t.Fatal("Forget left the child live")
	}
	if cf.Other().Value() != 42 {
		t.Fatalf("other = %d, want 42 — Forget dropped counts", cf.Other().Value())
	}
	c.Inc() // stale handle folds forward
	if cf.Other().Value() != 43 {
		t.Fatal("stale handle lost count after Forget")
	}
	if ev := r.Counter("rim_obs_family_evictions_total", "").Value(); ev != 0 {
		t.Fatalf("Forget counted as eviction (%d)", ev)
	}
	cf.Forget("never-existed") // no-op, no panic
}

// TestFamilyCardinalityBounded is the acceptance check: 10k distinct
// session labels must leave the registry bounded at the cap, with every
// count conserved.
func TestFamilyCardinalityBounded(t *testing.T) {
	r := NewRegistry()
	cf := r.CounterFamily("rim_test_flood_total", "", FamilyOpts{Labels: []string{"session"}})
	hf := r.HistogramFamily("rim_test_flood_seconds", "", FamilyOpts{
		Labels: []string{"session"}, Bounds: []float64{1}})
	const flood = 10000
	for i := 0; i < flood; i++ {
		id := fmt.Sprintf("sess-%05d", i)
		cf.With(id).Inc()
		hf.With(id).Observe(0.5)
	}
	if cf.Len() != DefMaxChildren || hf.Len() != DefMaxChildren {
		t.Fatalf("Len = %d/%d, want %d — cap not enforced", cf.Len(), hf.Len(), DefMaxChildren)
	}
	if cf.Total() != flood {
		t.Fatalf("Total = %d, want %d — counts lost under flood", cf.Total(), flood)
	}
	if hf.Other().Count() != flood-DefMaxChildren {
		t.Fatalf("other count = %d, want %d", hf.Other().Count(), flood-DefMaxChildren)
	}
	snap := r.Snapshot()
	// cap live children + other, per family, plus the evictions counter.
	if max := 2*(DefMaxChildren+1) + 1; len(snap) > max {
		t.Fatalf("snapshot has %d entries, want <= %d — registry unbounded", len(snap), max)
	}
}

func TestFamilyPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	cf := r.CounterFamily("rim_test_render_total", "per-session frames", FamilyOpts{
		Labels: []string{"session", "shard"}})
	cf.With("w\"1\\x", "0").Add(2)
	cf.With("w2", "1").Add(3)
	hf := r.HistogramFamily("rim_test_render_seconds", "lag", FamilyOpts{
		Labels: []string{"session"}, Bounds: []float64{1}})
	hf.With("w2").Observe(0.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP rim_test_render_total per-session frames\n",
		"# TYPE rim_test_render_total counter\n",
		`rim_test_render_total{session="w\"1\\x",shard="0"} 2` + "\n",
		`rim_test_render_total{session="w2",shard="1"} 3` + "\n",
		`rim_test_render_seconds_bucket{session="w2",le="1"} 1` + "\n",
		`rim_test_render_seconds_bucket{session="w2",le="+Inf"} 1` + "\n",
		`rim_test_render_seconds_sum{session="w2"} 0.5` + "\n",
		`rim_test_render_seconds_count{session="w2"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE rim_test_render_total"); n != 1 {
		t.Fatalf("TYPE header emitted %d times, want once:\n%s", n, out)
	}
	// Children sort by label-value key: w"1\x < w2.
	if i, j := strings.Index(out, `session="w\"1\\x"`), strings.Index(out, `session="w2",shard`); i == -1 || j == -1 || i > j {
		t.Fatalf("children not key-sorted (i=%d j=%d):\n%s", i, j, out)
	}
}

func TestFamilyOtherRenderedOnlyWhenNonzero(t *testing.T) {
	r := NewRegistry()
	cf := r.CounterFamily("rim_test_quiet_total", "", FamilyOpts{Labels: []string{"s"}, MaxChildren: 4})
	cf.With("a").Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if strings.Contains(sb.String(), `s="other"`) {
		t.Fatalf("overflow child rendered with nothing folded:\n%s", sb.String())
	}
	cf.Forget("a")
	sb.Reset()
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `rim_test_quiet_total{s="other"} 1`) {
		t.Fatalf("overflow child missing after fold:\n%s", sb.String())
	}
}

func TestFamilyPanics(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("no labels", func() { r.CounterFamily("a_total", "", FamilyOpts{}) })
	mustPanic("bad label name", func() { r.CounterFamily("b_total", "", FamilyOpts{Labels: []string{"1x"}}) })
	mustPanic("reserved label name", func() { r.CounterFamily("b2_total", "", FamilyOpts{Labels: []string{"__name__"}}) })
	cf := r.CounterFamily("c_total", "", FamilyOpts{Labels: []string{"s"}})
	mustPanic("arity mismatch", func() { cf.With("a", "b") })
	mustPanic("label schema mismatch", func() {
		r.CounterFamily("c_total", "", FamilyOpts{Labels: []string{"t"}})
	})
	r.Counter("plain_total", "")
	mustPanic("kind mismatch", func() {
		r.CounterFamily("plain_total", "", FamilyOpts{Labels: []string{"s"}})
	})
	mustPanic("family vs plain mismatch", func() { r.Counter("c_total", "") })
}

// TestFamilyChurnRace drives concurrent child creation, eviction, Forget
// and scraping; run with -race this proves the family's synchronization.
func TestFamilyChurnRace(t *testing.T) {
	r := NewRegistry()
	cf := r.CounterFamily("rim_test_churn_total", "", FamilyOpts{Labels: []string{"session"}, MaxChildren: 8})
	hf := r.HistogramFamily("rim_test_churn_seconds", "", FamilyOpts{
		Labels: []string{"session"}, MaxChildren: 8, Bounds: []float64{0.1, 1}})
	gf := r.GaugeFamily("rim_test_churn_depth", "", FamilyOpts{Labels: []string{"session"}, MaxChildren: 8})
	const writers, iters = 4, 500
	var writeWg, readWg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWg.Add(1)
		go func(w int) {
			defer writeWg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("s%d-%d", w, i%32)
				c := cf.With(id)
				c.Inc()
				hf.With(id).Observe(float64(i%3) / 2)
				gf.With(id).Set(float64(i))
				if i%7 == 0 {
					cf.Forget(id)
					c.Inc() // stale handle after concurrent Forget
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		readWg.Add(1)
		go func() {
			defer readWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				cf.Total()
				hf.Len()
			}
		}()
	}
	writeWg.Wait()
	close(stop)
	readWg.Wait()
	// Every Inc must land somewhere — live child or other: iters per
	// writer, plus one post-Forget Inc per Forget.
	want := uint64(writers * (iters + 1 + (iters-1)/7))
	if got := cf.Total(); got != want {
		t.Fatalf("Total = %d, want %d — counts lost under churn", got, want)
	}
	// Likewise every observation, across live children and evictions.
	var observed uint64
	hf.Each(func(_ []string, h *Histogram) { observed += h.Count() })
	if observed != writers*iters {
		t.Fatalf("histogram count = %d, want %d — observations lost under churn", observed, writers*iters)
	}
}
