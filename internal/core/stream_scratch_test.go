package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/rf"
	"rim/internal/trrs"
)

// TestStreamerHoldsOnlyCarriedState pins what a hexagonal streamer keeps
// between hops at the daemon's fast point and at the paper's (§6.2.9: 200
// Hz, 114 tones, W = 0.5 s): no CSI plane bytes, since each hop normalizes
// into the pooled hop scratch, and no ring for a reversed twin, since
// each hop reflects the twins into the hop's arena. The engine holds one
// pair-matrix ring of peak-window rows per swept pair and nothing else.
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
				if twins := len(st.absPairs) - len(st.sweptPairs); twins != 3 {
					t.Fatalf("hop %d reflected %d reversed twins, want the hexagonal array's 3", st.hopSeq, twins)
				}
				swept := map[trrs.PairSpec]bool{}
				for _, p := range st.sweptPairs {
					if p.I != p.J && swept[trrs.PairSpec{I: p.J, J: p.I}] {
						t.Fatalf("hop %d swept both (%d,%d) and its reversed twin", st.hopSeq, p.I, p.J)
					}
					swept[p] = true
				}
				planes, matrices := st.inc.HeldBytes()
				if planes != 0 {
					t.Fatalf("after hop %d the streamer holds %d plane bytes, want 0", st.hopSeq, planes)
				}
				peak := max(st.span, 3*st.guard) + st.hop
				if want := len(swept) * peak * (2*st.wSlots + 1) * 8; st.bufLen() >= st.span && matrices != want {
					t.Fatalf("after hop %d the pair rings hold %d bytes, want %d (%d swept pairs of %d rows)",
						st.hopSeq, matrices, want, len(swept), peak)
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
