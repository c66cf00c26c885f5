package main

import (
	"bytes"
	"maps"
	"math"
	"runtime"
	"strconv"
	"testing"

	"rim/internal/obs"
)

// promRegistry builds a registry with a plain gauge and one labeled family
// of each kind, every child keyed by label, and help text help: the shapes
// rimserved's /metrics serves.
func promRegistry(label, help string, v float64) *obs.Registry {
	reg := obs.NewRegistry()
	reg.Gauge("rim_fuzz_plain", help).Set(v)
	reg.CounterFamily("rim_fuzz_total", help,
		obs.FamilyOpts{Labels: []string{"session", "shard"}}).With(label, "0").Add(3)
	reg.GaugeFamily("rim_fuzz_depth", help,
		obs.FamilyOpts{Labels: []string{"session"}}).With(label).Set(v)
	h := reg.HistogramFamily("rim_fuzz_seconds", help,
		obs.FamilyOpts{Labels: []string{"session"}, Bounds: []float64{0.001, 0.1, 1}}).With(label)
	h.Observe(0.05)
	h.Observe(v)
	return reg
}

// promSeries flattens a registry snapshot into the series the text format
// carries, in writer order. A bucket's le label is left out: its bound
// travels in the returned float (NaN for every other series).
func promSeries(ms []obs.Metric) (out []sample, les []float64) {
	for _, m := range ms {
		if m.Type != "histogram" {
			out = append(out, sample{name: m.Name, labels: m.Labels, value: m.Value})
			les = append(les, math.NaN())
			continue
		}
		for _, b := range m.Buckets {
			out = append(out, sample{name: m.Name + "_bucket", labels: m.Labels, value: float64(b.CumulativeCount)})
			les = append(les, b.UpperBound)
		}
		out = append(out,
			sample{name: m.Name + "_sum", labels: m.Labels, value: m.Sum},
			sample{name: m.Name + "_count", labels: m.Labels, value: float64(m.Count)})
		les = append(les, math.NaN(), math.NaN())
	}
	return out, les
}

// sameFloat is value equality that also matches NaN with NaN.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// parseAllocBudget is the most parseProm may allocate for data: the
// scanner's 64 KiB initial buffer, plus the line copies, label maps and
// the sample slice, which grow with the text at well under 64 bytes per
// input byte (a 6-byte `a{} 1` line costs one map header and one sample).
func parseAllocBudget(data []byte) uint64 { return 64*uint64(len(data)) + 128<<10 }

// FuzzParseProm feeds arbitrary bytes to parseProm, which must not panic
// and must allocate within parseAllocBudget, and renders a registry whose
// label values and help text come from the fuzzer: whatever the obs writer
// produces must parse back to the same names, labels and values.
func FuzzParseProm(f *testing.F) {
	for _, label := range []string{"walker-1", `weird "b\`, "two\nlines", `\n`, ""} {
		var buf bytes.Buffer
		if err := promRegistry(label, "help "+label, 0.5).WritePrometheus(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), label, 0.5)
	}
	f.Add([]byte(promFixture), "", math.Inf(1))
	f.Add([]byte("a{} 1\n{} 2\nb{x=\"\\\"} 3\n"), "\x1f", math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, label string, v float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = parseProm(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n, budget := after.TotalAlloc-before.TotalAlloc, parseAllocBudget(data); n > budget {
			t.Fatalf("parsing %d bytes allocated %d, budget %d", len(data), n, budget)
		}

		if label == obs.OverflowLabel {
			return // reserved for the family's overflow child
		}
		reg := promRegistry(label, label, v)
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := parseProm(&buf)
		if err != nil {
			t.Fatalf("obs writer output does not parse: %v\n%s", err, buf.Bytes())
		}
		want, les := promSeries(reg.Snapshot())
		if len(got) != len(want) {
			t.Fatalf("parsed %d series, writer rendered %d", len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			labels := maps.Clone(g.labels)
			if !math.IsNaN(les[i]) {
				le, err := strconv.ParseFloat(labels["le"], 64)
				if err != nil || le != les[i] {
					t.Fatalf("series %d (%s) le %q, want %v", i, w.name, labels["le"], les[i])
				}
				delete(labels, "le")
			}
			if g.name != w.name || !maps.Equal(labels, w.labels) || !sameFloat(g.value, w.value) {
				t.Fatalf("series %d parsed as %s%q %v, want %s%q %v",
					i, g.name, g.labels, g.value, w.name, w.labels, w.value)
			}
		}
	})
}
