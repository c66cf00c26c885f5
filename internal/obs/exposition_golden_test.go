package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateExpositionGolden = flag.Bool("update-exposition-golden", false,
	"rewrite testdata/exposition.prom and testdata/snapshot.json from goldenRegistry")

// goldenRegistry builds a registry that exercises every metric kind and
// every family path the exposition renders: plain counter, gauge and
// histograms (one with an explicit trailing +Inf bound, which is trimmed,
// one with the default buckets), a counter family past its cap with a
// stale handle still counting into the overflow child, a gauge family
// whose evicted child is detached, and a histogram family after Forget.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("rim_golden_frames_total", "frames seen\nwith a \\ in help").Add(42)
	g := r.Gauge("rim_golden_depth", "queue depth")
	g.Set(3.25)
	g.Add(-1)
	h := r.Histogram("rim_golden_hop_seconds", "hop latency", []float64{0.01, 0.1, 1, math.Inf(1)})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	r.Timer("rim_golden_push_seconds", "").Observe(3e-4)

	cf := r.CounterFamily("rim_golden_session_frames_total", "per-session frames", FamilyOpts{
		Labels: []string{"session", "shard"}, MaxChildren: 2})
	a := cf.With("a", "0")
	a.Add(10)
	cf.With(`w"1\x`, "1").Add(20)
	cf.With("c", "0").Add(30) // evicts a into the overflow child
	a.Add(5)                  // the stale handle keeps counting into it

	gf := r.GaugeFamily("rim_golden_shard_depth", "per-shard depth", FamilyOpts{
		Labels: []string{"shard"}, MaxChildren: 1})
	ga := gf.With("0")
	ga.Set(7)
	gf.With("1").Set(9) // evicts shard 0, which detaches
	ga.Set(100)         // a detached child goes quiet

	hf := r.HistogramFamily("rim_golden_lag_seconds", "per-session lag", FamilyOpts{
		Labels: []string{"session"}, Bounds: []float64{0.1, 1}})
	hf.With("x").Observe(0.05)
	hf.With("x").Observe(2)
	hf.With("y").Observe(0.5)
	hf.Forget("x") // folds x's distribution into the overflow child
	hf.Forget("never-opened")
	return r
}

// TestExpositionGolden pins the bytes WritePrometheus renders and the
// Snapshot JSON for goldenRegistry, so a rewrite of the registry's
// plumbing must keep both byte-identical. A nil registry and the nil
// families it hands out must render nothing.
func TestExpositionGolden(t *testing.T) {
	r := goldenRegistry()
	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	snap, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	snap = append(snap, '\n')
	for _, g := range []struct {
		file string
		got  []byte
	}{{"exposition.prom", prom.Bytes()}, {"snapshot.json", snap}} {
		path := filepath.Join("testdata", g.file)
		if *updateExpositionGolden {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs from the golden:\n got:\n%s\nwant:\n%s", path, g.got, want)
		}
	}

	var nr *Registry
	nr.CounterFamily("rim_golden_nil_total", "", FamilyOpts{Labels: []string{"s"}}).With("a").Inc()
	nr.GaugeFamily("rim_golden_nil", "", FamilyOpts{Labels: []string{"s"}}).With("a").Set(1)
	nhf := nr.HistogramFamily("rim_golden_nil_seconds", "", FamilyOpts{Labels: []string{"s"}})
	nhf.With("a").Observe(1)
	nhf.Forget("a")
	var nb bytes.Buffer
	if err := nr.WritePrometheus(&nb); err != nil || nb.Len() != 0 {
		t.Fatalf("nil registry rendered %q (err %v), want nothing", nb.String(), err)
	}
	if js, _ := json.Marshal(nr.Snapshot()); string(js) != "null" {
		t.Fatalf("nil registry snapshot = %s, want null", js)
	}
}
