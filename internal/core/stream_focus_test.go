package core

import (
	"reflect"
	"strings"
	"testing"

	"rim/internal/array"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/trace"
)

// focusRun is one instrumented replay: the emitted estimates, the quality
// engine's observations and the pipeline's work counts.
type focusRun struct {
	est []Estimate
	// quality holds the rim_quality_* readings (κ, sharpness, residual
	// histograms and calibration outcomes) and cal the calibration curve.
	quality []obs.Metric
	cal     []quality.CalBin
	// segments counts KindSegment trace events; builds and derived the
	// samples of rim_trrs_build_seconds and rim_trrs_derived_seconds.
	segments        int
	builds, derived uint64
}

// TestStreamFocusMatchesOracle streams the pair array at the daemon's
// settings on a walk and on an idle-then-step fixture. The incremental
// stream analyzes only the segments that overlap each hop's emit window
// and builds the derived matrices only on hops that analyze one; the
// recompute oracle analyzes everything. Estimates and quality-engine
// observations must be identical, while the focused stream must analyze
// fewer segments — and, on the idle fixture, build derived matrices on
// fewer hops than it extends the base matrices.
func TestStreamFocusMatchesOracle(t *testing.T) {
	arr := array.NewPairArray(spacing)
	for _, tc := range []struct {
		name  string
		idle  bool
		loops int
	}{
		{"walk", false, 2},
		{"idle", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := daemonLoopSeries(t, arr, 1, tc.idle, tc.loops, 3)
			run := func(recompute bool) focusRun {
				cfg := daemonStreamConfig(arr)
				cfg.recompute = recompute
				reg := obs.NewRegistry()
				rec := trace.NewRecorder(1 << 16)
				cfg.Core.Obs = reg
				cfg.Core.Trace = rec
				cfg.Core.Quality = quality.New(quality.Config{Obs: reg})
				var r focusRun
				r.est, _ = replayStream(t, s, cfg)
				for _, m := range reg.Snapshot() {
					switch {
					case strings.HasPrefix(m.Name, "rim_quality_"):
						r.quality = append(r.quality, m)
					case m.Name == "rim_trrs_build_seconds":
						r.builds = m.Count
					case m.Name == "rim_trrs_derived_seconds":
						r.derived = m.Count
					}
				}
				r.cal = cfg.Core.Quality.Calibration().Curve()
				for _, e := range rec.Snapshot() {
					if e.Kind == trace.KindSegment {
						r.segments++
					}
				}
				return r
			}
			want, got := run(true), run(false)
			requireSameEstimates(t, want.est, got.est)
			for _, name := range []string{"rim_quality_kappa_ratio", "rim_quality_sharpness_ratio"} {
				if observed(want.quality, name) == 0 {
					t.Fatalf("oracle observed no %s samples", name)
				}
			}
			if !reflect.DeepEqual(want.quality, got.quality) {
				t.Errorf("quality observations differ:\noracle:  %+v\nfocused: %+v", want.quality, got.quality)
			}
			if !reflect.DeepEqual(want.cal, got.cal) {
				t.Errorf("calibration curves differ:\noracle:  %+v\nfocused: %+v", want.cal, got.cal)
			}
			if got.segments == 0 || got.segments >= want.segments {
				t.Errorf("focused stream analyzed %d segments, oracle %d: want fewer, and > 0",
					got.segments, want.segments)
			}
			t.Logf("segments analyzed: oracle %d, focused %d; focused hops: %d builds, %d derived",
				want.segments, got.segments, got.builds, got.derived)
			if tc.idle && (got.derived == 0 || got.derived >= got.builds) {
				t.Errorf("idle stream built derived matrices on %d of %d hops, want fewer and > 0",
					got.derived, got.builds)
			}
		})
	}
}

// observed returns the sample count of the named histogram in ms.
func observed(ms []obs.Metric, name string) uint64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Count
		}
	}
	return 0
}
