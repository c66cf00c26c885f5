package trrs

import (
	"fmt"
	"math/rand"
	"testing"
)

// streamPoint is a streamer's operating point as the incremental engine
// sees it, in slots.
type streamPoint struct {
	name                    string
	w, span, hop, tones, tx int
	lags                    []int
}

var (
	// fastPoint is the daemon's: 100 Hz, W = 0.3 s, span 3 s, hop 0.5 s,
	// 30 tones, movement lags 0.05 s and 0.25 s.
	fastPoint = streamPoint{name: "fast", w: 30, span: 300, hop: 50, tones: 30, tx: 3, lags: []int{5, 25}}
	// paperPoint is §6.2.9's: 200 Hz, W = 0.5 s, 114 tones.
	paperPoint = streamPoint{name: "paper", w: 100, span: 600, hop: 100, tones: 114, tx: 3, lags: []int{10, 50}}
)

// planeBytes is the storage the engine's CSI planes hold.
func planeBytes(inc *Incremental) int {
	switch p := inc.ring.(type) {
	case *planes[float64]:
		return slabBytes(p.re, 8) + slabBytes(p.im, 8)
	case *planes[float32]:
		return slabBytes(p.re, 4) + slabBytes(p.im, 4)
	}
	panic("unknown plane type")
}

func slabBytes[T any](s [][][]T, size int) int {
	n := 0
	for _, a := range s {
		for _, slab := range a {
			n += cap(slab) * size
		}
	}
	return n
}

// TestPlaneRingBytes pins the CSI planes of a streamer-shaped run after
// warm-up, the way TestExtendMatricesBackingBytes pins the pair rings: the
// window grows hop by hop to span + hop and then slides, each hop
// refreshing a pair, its reversed twin and the self-TRRS series at the
// movement lags. The planes must hold at most reach + 2·hop slots (reach
// = max(W, lags): the slots the next refresh reads, one hop of new slots
// and one of room), far below the window, and no steady-state hop may
// read below their head.
func TestPlaneRingBytes(t *testing.T) {
	for _, pt := range []streamPoint{fastPoint, paperPoint} {
		t.Run(pt.name, func(t *testing.T) {
			const ants = 3
			rng := rand.New(rand.NewSource(13))
			s := randomSeries(rng, ants, pt.tx, pt.tones, 2*pt.hop+1)
			inc, err := NewIncremental(s.Rate, ants, pt.tx, pt.w)
			if err != nil {
				t.Fatal(err)
			}
			inc.SetPeakWindow(pt.span+pt.hop, pt.hop, pt.hop)
			pairs := []PairSpec{{0, 1}, {2, 0}, {1, 0}}
			k := 0
			hop := func() {
				for n := 0; n < pt.hop; n++ {
					if err := inc.Append(seriesSnapshot(s, k%s.NumSlots())); err != nil {
						t.Fatal(err)
					}
					k++
				}
				if _, err := inc.ExtendMatrices(pairs); err != nil {
					t.Fatal(err)
				}
				for a := 0; a < ants; a++ {
					for _, lag := range pt.lags {
						inc.selfWindow(a, lag)
					}
				}
			}
			for inc.NumSlots() < pt.span+pt.hop {
				hop()
			}
			for h := 0; h < 6; h++ {
				inc.DropFront(pt.hop)
				hop()
				if inc.full != nil {
					t.Fatalf("steady-state hop %d read below the planes' head", h)
				}
			}
			reach := max(pt.w, pt.lags[len(pt.lags)-1])
			limit := (reach + 2*pt.hop) * pt.tones * ants * pt.tx * 2 * 8
			if got := planeBytes(inc); got > limit {
				t.Fatalf("planes hold %d bytes, want at most %d ((reach %d + 2·hop %d) slots)",
					got, limit, reach, pt.hop)
			}
			if c := inc.Capacity(); c >= inc.NumSlots() {
				t.Fatalf("planes have room for %d slots, not fewer than the %d-slot window", c, inc.NumSlots())
			}
		})
	}
}

// TestIncrementalReplayEqualsSerial rebuilds an engine the way a
// checkpoint restore does — a declared peak, then a whole window appended
// with no refresh between — so the planes hold only the window's tail and
// the first refresh of every pair and self-TRRS series re-normalizes the
// rest from the raw rows. That refresh and the hops after it must be
// bit-identical to the window's batch engine, and only the first may read
// below the planes' head.
func TestIncrementalReplayEqualsSerial(t *testing.T) {
	const w, span, hop = 12, 90, 15
	s := walkSeries(t, true)
	pairs := []PairSpec{{0, 1}, {1, 0}, {2, 1}, {0, 2}}
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		t.Run(prec.String(), func(t *testing.T) {
			inc, err := NewIncrementalPrecision(s.Rate, s.NumAnts, s.NumTx, w, prec)
			if err != nil {
				t.Fatal(err)
			}
			inc.SetKernel(KernelVector)
			inc.SetPeakWindow(span+hop, hop, hop)
			next := 0
			for ; next < span; next++ {
				if err := inc.Append(seriesSnapshot(s, next)); err != nil {
					t.Fatal(err)
				}
			}
			if inc.lo == inc.start {
				t.Fatal("the replay left the planes holding the whole window")
			}
			for h := 0; next+hop <= s.NumSlots() && h < 4; h++ {
				if h > 0 {
					for n := 0; n < hop; n, next = n+1, next+1 {
						if err := inc.Append(seriesSnapshot(s, next)); err != nil {
							t.Fatal(err)
						}
					}
					inc.DropFront(hop)
				}
				got, err := inc.ExtendMatrices(pairs)
				if err != nil {
					t.Fatal(err)
				}
				oracle := windowEngineOf(s, next-inc.NumSlots(), next, prec, KernelVector)
				for n, p := range pairs {
					requireIdentical(t, fmt.Sprintf("hop %d pair (%d,%d)", h, p.I, p.J),
						oracle.BaseMatrixSerial(p.I, p.J, w), got[n])
				}
				view, err := inc.EngineView(nil)
				if err != nil {
					t.Fatal(err)
				}
				for a := 0; a < s.NumAnts; a++ {
					requireSameSeries(t, fmt.Sprintf("hop %d self %d", h, a),
						oracle.SelfSeries(a, 5, 4), view.SelfSeries(a, 5, 4))
				}
				if below := inc.full != nil; below != (h == 0) {
					t.Fatalf("hop %d: read below the planes' head = %v, want %v", h, below, h == 0)
				}
			}
		})
	}
}
