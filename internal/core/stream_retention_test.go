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
// to the declared peak window (the span plus one hop) and no further. The
// incremental engine's CSI ring doubles during warm-up but stops at
// reach + 2·hop slots (the refresh reach — W, the movement lags being
// shorter at this point — plus the hop between refreshes and one hop of
// room), and SetHopFactor(2) regrows it once, to exactly reach + 3·hop,
// and the raw ring once, to the span plus two hops. No hop, warm-up
// included and at either hop length, reads below the planes' head, so
// nothing is re-normalized from the raw rows.
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
	k := 0
	push := func() {
		flat := freshFrame(s, k%s.NumSlots(), snap)
		runtime.SetFinalizer(&flat[0], func(*complex128) { freed.Add(1) })
		if _, err := st.Push(snap); err != nil && !errors.Is(err, ErrAnalysis) {
			t.Fatal(err)
		}
		k++
	}
	span, hop := st.span, st.hop
	for k < span+6*hop {
		push()
	}
	if n := st.inc.Renormalized(); n != 0 {
		t.Fatalf("the hops re-normalized the window %d times, want none", n)
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
	reach := st.wSlots
	if c := st.inc.Capacity(); c != reach+2*hop {
		t.Fatalf("CSI ring holds %d slots, want reach + 2·hop = %d", c, reach+2*hop)
	}

	st.SetHopFactor(2)
	var caps []int
	for end := k + 8*hop; k < end; {
		push()
		if c := st.inc.Capacity(); len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
	}
	if want := []int{reach + 2*hop, reach + 3*hop}; len(caps) != 2 || caps[0] != want[0] || caps[1] != want[1] {
		t.Fatalf("after SetHopFactor(2) the CSI ring held %v slots in turn, want %v (one regrow)", caps, want)
	}
	if n := st.inc.Renormalized(); n != 0 {
		t.Fatalf("the hops after SetHopFactor(2) re-normalized the window %d times, want none", n)
	}
	if c, want := st.raw.Capacity(), span+2*hop; c != want {
		t.Fatalf("after SetHopFactor(2) the raw ring holds %d slots, want the span plus two hops = %d", c, want)
	}
}
