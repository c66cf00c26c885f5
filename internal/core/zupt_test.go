package core

import (
	"testing"

	"rim/internal/array"
	"rim/internal/geom"
	"rim/internal/obs"
	"rim/internal/obs/trace"
	"rim/internal/traj"
)

func TestZUPTSlotConfidence(t *testing.T) {
	cases := []struct {
		ind, release, want float64
	}{
		{1, 0.86, 1},
		{0.86, 0.86, 0},
		{0.93, 0.86, 0.5},
		{0.5, 0.86, 0}, // below release clamps to 0
		{1.2, 0.86, 1}, // above 1 clamps to 1
		{0.3, 1, 1},    // degenerate release >= 1: everything scores 1
		{0.9, 0.8, 0.5},
	}
	for _, c := range cases {
		got := zuptSlotConfidence(c.ind, c.release)
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("zuptSlotConfidence(%v, %v) = %v, want %v", c.ind, c.release, got, c.want)
		}
	}
}

func TestZUPTIntervalSeconds(t *testing.T) {
	z := ZUPTInterval{Start: 100, End: 150}
	if got := z.Seconds(100); got != 0.5 {
		t.Errorf("Seconds(100) = %v, want 0.5", got)
	}
	if got := z.Seconds(0); got != 0 {
		t.Errorf("Seconds(0) = %v, want 0", got)
	}
}

// checkZUPTInvariants enforces the interval contract shared by the batch
// extractor and the fuzz target: ordered, non-overlapping, at least minLen
// slots, within [0, slots), confidence in [0, 1].
func checkZUPTInvariants(t *testing.T, zupts []ZUPTInterval, slots, minLen int) {
	t.Helper()
	prevEnd := 0
	for i, z := range zupts {
		if z.Start < 0 || z.End > slots || z.Start >= z.End {
			t.Fatalf("interval %d out of range: %+v (slots=%d)", i, z, slots)
		}
		if z.Start < prevEnd {
			t.Fatalf("interval %d overlaps or disorders its predecessor: %v", i, zupts)
		}
		if z.End-z.Start < minLen {
			t.Fatalf("interval %d shorter than minLen %d: %+v", i, minLen, z)
		}
		if z.Confidence < 0 || z.Confidence > 1 {
			t.Fatalf("interval %d confidence out of [0,1]: %+v", i, z)
		}
		prevEnd = z.End
	}
}

// TestZUPTIntervalsOnPauseWalk runs a pause–move–pause walk through the
// pipeline and checks that the two pauses surface as zero-velocity
// intervals, that the moving leg does not, and that the intervals are
// mirrored on the rim_zupt_* counters and the trace stream.
func TestZUPTIntervalsOnPauseWalk(t *testing.T) {
	rate := 100.0
	arr := array.NewLinear3(spacing)
	b := traj.NewBuilder(rate, geom.Pose{Pos: geom.Vec2{X: 10, Y: 0}})
	b.Pause(0.8)
	b.MoveDir(0, 1.0, 0.4)
	b.Pause(0.8)
	tr := b.Build()
	s := buildSeries(t, tr, arr, 77)

	reg := obs.NewRegistry()
	rec := trace.NewRecorder(0)
	cfg := testConfigV20(arr)
	cfg.Obs = reg
	cfg.Trace = rec
	res, err := ProcessSeries(s, cfg)
	if err != nil {
		t.Fatal(err)
	}

	slots := len(res.Estimates)
	minLen := int(zuptMinSeconds * rate)
	checkZUPTInvariants(t, res.ZUPTs, slots, minLen)
	if len(res.ZUPTs) < 2 {
		t.Fatalf("ZUPT intervals = %v, want the two pauses", res.ZUPTs)
	}
	// The walk is pause [0, 80), move [80, 330), pause [330, 410): the first
	// interval must cover part of the leading pause, the last part of the
	// trailing pause, and nothing may claim the middle of the moving leg.
	if res.ZUPTs[0].Start > 60 {
		t.Errorf("first interval misses the leading pause: %+v", res.ZUPTs[0])
	}
	if last := res.ZUPTs[len(res.ZUPTs)-1]; last.End < slots-40 {
		t.Errorf("last interval misses the trailing pause: %+v (slots=%d)", last, slots)
	}
	mid := int(0.8*rate) + int(2.5*rate)/2
	for _, z := range res.ZUPTs {
		if z.Start <= mid && mid < z.End {
			t.Errorf("interval %+v claims the middle of the moving leg (slot %d)", z, mid)
		}
	}

	// Counters mirror the extracted intervals exactly.
	var nIntervals, nSlots uint64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "rim_zupt_intervals_total":
			nIntervals = uint64(m.Value)
		case "rim_zupt_slots_total":
			nSlots = uint64(m.Value)
		}
	}
	if nIntervals != uint64(len(res.ZUPTs)) {
		t.Errorf("rim_zupt_intervals_total = %d, want %d", nIntervals, len(res.ZUPTs))
	}
	var wantSlots uint64
	for _, z := range res.ZUPTs {
		wantSlots += uint64(z.End - z.Start)
	}
	if nSlots != wantSlots {
		t.Errorf("rim_zupt_slots_total = %d, want %d", nSlots, wantSlots)
	}

	// One KindZUPT trace event per interval, carrying its bounds and
	// permille confidence.
	var events []trace.Event
	for _, e := range rec.Snapshot() {
		if e.Kind == trace.KindZUPT {
			events = append(events, e)
		}
	}
	if len(events) != len(res.ZUPTs) {
		t.Fatalf("KindZUPT events = %d, want %d", len(events), len(res.ZUPTs))
	}
	for i, z := range res.ZUPTs {
		e := events[i]
		if e.Frame != int64(z.Start) || e.A != int64(z.End) || e.B != int64(z.Confidence*1000) {
			t.Errorf("event %d = {Frame:%d A:%d B:%d}, want {%d %d %d}",
				i, e.Frame, e.A, e.B, z.Start, z.End, int64(z.Confidence*1000))
		}
	}
}
