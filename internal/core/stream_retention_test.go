package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rim/internal/array"
)

// TestStreamerWindowRetention pins what the window storage keeps alive.
// Each slot is pushed as a fresh frame with one backing for all its rows,
// as the wire decoder makes them. The window store copies the rows, so
// every frame is collectable once its push returns, and its raw ring grows
// to the declared peak window (the span plus one hop) and no further, and
// SetHopFactor(2) regrows it once, to the span plus two hops. The
// incremental engine keeps no CSI planes between hops: each hop
// normalizes the slots its refreshes read into the pooled hop scratch, at
// most reach + stride slots (the refresh reach — W, the movement lags
// being shorter at this point — plus the hop between refreshes), and no
// hop, warm-up included and at either hop length, reads below the steady
// reach.
func TestStreamerWindowRetention(t *testing.T) {
	arr := array.NewHexagonal(0.029)
	s := daemonLoopSeries(t, arr, 3, false, 1, 5)
	cfg := StreamConfig{Core: FastConfig(arr), SpanSeconds: 3, HopSeconds: 0.5}
	st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	var freed atomic.Int64
	snap := make([][][]complex128, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
	span, hop, reach := st.span, st.hop, st.wSlots
	k, hops := 0, 0
	push := func() {
		flat := freshFrame(s, k%s.NumSlots(), snap)
		runtime.SetFinalizer(&flat[0], func(*complex128) { freed.Add(1) })
		seq, n := st.hopSeq, st.inc.Normalized()
		if _, err := st.Push(snap); err != nil && !errors.Is(err, ErrAnalysis) {
			t.Fatal(err)
		}
		k++
		if st.hopSeq == seq {
			return
		}
		hops++
		if got, most := st.inc.Normalized()-n, reach+st.hopFactor*hop; got > most {
			t.Fatalf("hop %d normalized %d slots, want at most reach + stride = %d", st.hopSeq, got, most)
		}
		if planes, _ := st.inc.HeldBytes(); planes != 0 {
			t.Fatalf("after hop %d the engine holds %d plane bytes, want 0", st.hopSeq, planes)
		}
	}
	for k < span+6*hop {
		push()
	}
	if n := st.inc.Renormalized(); n != 0 || hops == 0 {
		t.Fatalf("%d of %d hops read below the steady reach, want none", n, hops)
	}
	if st.dropped == 0 {
		t.Fatal("the window was never trimmed")
	}
	// Every pushed frame is garbage once the harness forgets the last one:
	// the window holds copies.
	for a := range snap {
		clear(snap[a])
	}
	for i := 0; i < 100 && freed.Load() < int64(k); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := freed.Load(); n != int64(k) {
		t.Fatalf("%d of the %d pushed frames were collected: the rest are still reachable", n, k)
	}
	if c, want := st.raw.Capacity(), span+hop; c != want {
		t.Fatalf("raw ring holds %d slots, want the span plus one hop = %d", c, want)
	}

	st.SetHopFactor(2)
	hops = 0
	for end := k + 8*hop; k < end; {
		push()
	}
	if n := st.inc.Renormalized(); n != 0 || hops == 0 {
		t.Fatalf("after SetHopFactor(2) %d of %d hops read below the steady reach, want none", n, hops)
	}
	if c, want := st.raw.Capacity(), span+2*hop; c != want {
		t.Fatalf("after SetHopFactor(2) the raw ring holds %d slots, want the span plus two hops = %d", c, want)
	}
}
