package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/obs"
	"rim/internal/rf"
	"rim/internal/trrs"
)

// TestStreamerHoldsOnlyCarriedState pins what a hexagonal streamer keeps
// between hops at the daemon's fast point and at the paper's (§6.2.9: 200
// Hz, 114 tones, W = 0.5 s): no CSI plane bytes, since each hop normalizes
// into the pooled hop scratch, and no ring for a reversed twin, since
// each hop's refresh reflects the twins into the scratch's arena. The
// engine holds one pair-matrix ring of peak-window rows per swept pair
// and nothing else, so its matrix bytes count the hexagonal array's 3
// twins out of the pairs the hop requested.
func TestStreamerHoldsOnlyCarriedState(t *testing.T) {
	arr := array.NewHexagonal(0.029)
	points := []struct {
		name string
		s    *csi.Series
		cfg  StreamConfig
	}{
		{"fast", daemonLoopSeries(t, arr, 3, false, 1, 5), daemonStreamConfig(arr)},
		{"paper", loopSeries(t, arr, rf.DefaultConfig(), 200, false, 1, 5),
			StreamConfig{Core: DefaultConfig(arr), SpanSeconds: 3, HopSeconds: 0.5}},
	}
	for _, pt := range points {
		t.Run(pt.name, func(t *testing.T) {
			s := pt.s
			st, err := NewStreamer(pt.cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
			if err != nil {
				t.Fatal(err)
			}
			hops := 0
			for ti := 0; ti < s.NumSlots(); ti++ {
				if _, hop := pushSlot(t, st, s, ti, nil); !hop {
					continue
				}
				hops++
				planes, matrices := st.inc.HeldBytes()
				if planes != 0 {
					t.Fatalf("after hop %d the streamer holds %d plane bytes, want 0", st.hopSeq, planes)
				}
				peak := max(st.span, 3*st.guard) + st.hop
				ring := peak * (2*st.wSlots + 1) * 8
				if twins := len(st.absPairs) - matrices/ring; matrices%ring != 0 || twins != 3 {
					t.Fatalf("after hop %d the engine holds %d matrix bytes for %d pairs, want a %d-row ring for each but the hexagonal array's 3 reversed twins",
						st.hopSeq, matrices, len(st.absPairs), peak)
				}
			}
			if hops < 3 || st.dropped == 0 {
				t.Fatalf("%d hops, %d slots trimmed: the replay never reached the steady state", hops, st.dropped)
			}
		})
	}
}

// TestStreamersSharePooledScratch runs hexagonal and pair-array streamers
// on separate goroutines at once, so their hops borrow, dirty and return
// the same pooled hop scratch (plane stores of different shapes, arenas
// of different sizes), and requires each to emit bit for bit the
// estimates of its own replay run alone. Run it under -race.
func TestStreamersSharePooledScratch(t *testing.T) {
	hexa, pair := array.NewHexagonal(0.029), array.NewPairArray(0.029)
	walkers := []struct {
		arr *array.Array
		s   *csi.Series
	}{
		{hexa, daemonLoopSeries(t, hexa, 3, false, 1, 5)},
		{pair, daemonLoopSeries(t, pair, 1, false, 1, 6)},
		{hexa, daemonLoopSeries(t, hexa, 3, false, 1, 7)},
		{pair, daemonLoopSeries(t, pair, 1, true, 1, 8)},
	}
	want := make([][]Estimate, len(walkers))
	for k, w := range walkers {
		es, err := replayAlone(daemonStreamConfig(w.arr), w.s)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = es
	}
	got := make([][]Estimate, len(walkers))
	errs := make([]error, len(walkers))
	var wg sync.WaitGroup
	for k, w := range walkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = replayAlone(daemonStreamConfig(w.arr), w.s)
		}()
	}
	wg.Wait()
	for k := range walkers {
		if errs[k] != nil {
			t.Fatalf("walker %d: %v", k, errs[k])
		}
		t.Run(fmt.Sprintf("walker%d", k), func(t *testing.T) { requireSameEstimates(t, want[k], got[k]) })
	}
}

// replayAlone streams s through a fresh streamer and returns every
// estimate, Flush's included. It reports errors instead of failing, so
// goroutines can call it.
func replayAlone(cfg StreamConfig, s *csi.Series) ([]Estimate, error) {
	st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		return nil, err
	}
	var out []Estimate
	snap := make([][][]complex128, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
	for ti := 0; ti < s.NumSlots(); ti++ {
		freshFrame(s, ti, snap)
		es, err := st.Push(snap)
		if err != nil && !errors.Is(err, ErrAnalysis) {
			return nil, err
		}
		out = append(out, es...)
	}
	return append(out, st.Flush()...), nil
}

// TestScratchPoolBytesSteady replays a paper-point hexagonal walk (§6.2.9:
// 200 Hz, 114 tones, W = 0.5 s) twice, with a GC between the replays that
// empties the hop-scratch pool, and reads rim_scratch_pool_bytes after
// each. The pooled scratch must hold at most one steady hop's worth: its
// plane store at reach + hop slots, and one arena slab per matrix a hop
// takes (the reflected twins and the derived matrices), each at the peak
// window's rows, not a slab of every size the warm-up asked for. The two
// replays must read the same value, so the gauge compares across runs.
func TestScratchPoolBytesSteady(t *testing.T) {
	arr := array.NewHexagonal(0.029)
	s := loopSeries(t, arr, rf.DefaultConfig(), 200, false, 1, 5)
	replay := func() (float64, *Streamer) {
		reg := obs.NewRegistry()
		cfg := StreamConfig{Core: DefaultConfig(arr), SpanSeconds: 3, HopSeconds: 0.5}
		cfg.Core.Obs = reg
		st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
		if err != nil {
			t.Fatal(err)
		}
		for ti := 0; ti < s.NumSlots(); ti++ {
			pushSlot(t, st, s, ti, nil)
		}
		if st.dropped == 0 {
			t.Fatal("the replay never reached the steady state")
		}
		return reg.Gauge("rim_scratch_pool_bytes", "").Value(), st
	}
	first, st := replay()
	runtime.GC()
	runtime.GC()
	second, _ := replay()
	if first != second {
		t.Fatalf("rim_scratch_pool_bytes read %.0f, then %.0f after a GC emptied the pool", first, second)
	}

	groups, ring := pairGeometry(arr)
	pairs := neededPairs(groups, ring, false)
	matrices := len(ring) // a virtual-massive matrix per ring pair
	for k, p := range pairs {
		if slices.Contains(pairs[:k], trrs.PairSpec{I: p.J, J: p.I}) {
			matrices++ // a reflected twin
		}
	}
	for _, g := range groups {
		matrices++ // the virtual-massive matrix
		if len(g.Pairs) > 1 {
			matrices++ // the pair average it is built from
		}
	}
	// The refresh reach is W here: every movement lag is shorter.
	planes := (st.wSlots + st.hop) * s.NumAnts * s.NumTx * s.NumSub * 2 * 8
	peak := max(st.span, 3*st.guard) + st.hop
	arena := matrices * peak * (2*st.wSlots + 1) * 8
	if first > float64(planes+arena) {
		t.Fatalf("rim_scratch_pool_bytes %.0f above one steady hop's %d (planes %d + %d matrices of %d rows)",
			first, planes+arena, planes, matrices, peak)
	}
}
