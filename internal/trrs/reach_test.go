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

// TestPlaneStoreBytes pins the planes of a streamer-shaped run after
// warm-up, the way TestExtendMatricesBackingBytes pins the pair rings: the
// window grows hop by hop to span + hop and then slides, and each hop,
// with a store lent for it and taken back after, refreshes a pair, its
// reversed twin and the self-TRRS series at the movement lags. The lent
// store holds exactly reach + hop slots (reach = max(W, lags): the slots
// the refresh reads), far below the window, no steady-state hop
// normalizes more or reads below the steady reach, and between hops the
// engine holds no plane bytes at all.
func TestPlaneStoreBytes(t *testing.T) {
	for _, pt := range []streamPoint{fastPoint, paperPoint} {
		t.Run(pt.name, func(t *testing.T) {
			const ants = 3
			rng := rand.New(rand.NewSource(13))
			s := randomSeries(rng, ants, pt.tx, pt.tones, 2*pt.hop+1)
			inc, err := NewIncremental(s.Rate, ants, pt.tx, pt.w)
			if err != nil {
				t.Fatal(err)
			}
			inc.SetPeakWindow(pt.span+pt.hop, pt.hop)
			var lent PlaneStore
			pairs := []PairSpec{{0, 1}, {2, 0}, {1, 0}}
			k := 0
			hop := func() {
				for n := 0; n < pt.hop; n++ {
					if err := inc.Append(seriesSnapshot(s, k%s.NumSlots())); err != nil {
						t.Fatal(err)
					}
					k++
				}
				inc.SetPlanes(&lent)
				defer inc.SetPlanes(nil)
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
			reach := max(pt.w, pt.lags[len(pt.lags)-1])
			renorms := inc.Renormalized()
			for h := 0; h < 6; h++ {
				inc.DropFront(pt.hop)
				n := inc.Normalized()
				hop()
				if got := inc.Normalized() - n; got != reach+pt.hop {
					t.Fatalf("steady-state hop %d normalized %d slots, want reach + hop = %d", h, got, reach+pt.hop)
				}
			}
			if n := inc.Renormalized() - renorms; n != 0 {
				t.Fatalf("%d steady-state hops read below the steady reach", n)
			}
			want := (reach + pt.hop) * pt.tones * ants * pt.tx * 2 * 8
			if got := lent.Bytes(); got != want {
				t.Fatalf("lent store holds %d bytes, want %d ((reach %d + hop %d) slots)",
					got, want, reach, pt.hop)
			}
			if planes, _ := inc.HeldBytes(); planes != 0 {
				t.Fatalf("between hops the engine holds %d plane bytes, want 0", planes)
			}
		})
	}
}

// TestIncrementalReplayEqualsSerial rebuilds an engine the way a
// checkpoint restore does — a declared peak, then a whole window appended
// with no refresh between — so the first refresh of every pair and
// self-TRRS series reads the whole window, below the steady reach. That
// refresh and the hops after it, each with a store lent for it, must be
// bit-identical to the window's batch engine, only the first may read
// below the steady reach, and it must do so in a one-off store: the lent
// store never grows past reach + hop slots.
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
			inc.SetPeakWindow(span+hop, hop)
			var lent PlaneStore
			next := 0
			for ; next < span; next++ {
				if err := inc.Append(seriesSnapshot(s, next)); err != nil {
					t.Fatal(err)
				}
			}
			if planes, _ := inc.HeldBytes(); planes != 0 {
				t.Fatalf("the replay normalized into %d plane bytes before any refresh", planes)
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
				renorms := inc.Renormalized()
				inc.SetPlanes(&lent)
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
				inc.SetPlanes(nil)
				if below := inc.Renormalized() > renorms; below != (h == 0) {
					t.Fatalf("hop %d: read below the steady reach = %v, want %v", h, below, h == 0)
				}
				size := 8
				if prec == PrecisionFloat32 {
					size = 4
				}
				if b, limit := lent.Bytes(), (w+hop)*s.NumSub*s.NumAnts*s.NumTx*2*size; b > limit {
					t.Fatalf("hop %d: the lent store holds %d bytes, more than (W + hop) slots' %d", h, b, limit)
				}
			}
		})
	}
}

// TestLentStoreDirtiedBetweenHops lends one store to an engine, then to an
// engine with the same antennas and tx but fewer tones, whose refresh
// overwrites the backing with another layout, then back to the first.
// With no slot appended since its last refresh, the first engine's next
// reads (a pair first built now, which reads the whole window, and its
// self-TRRS series) must still be bit-identical to the window's batch
// engine: planes built in a lent store do not outlive the loan.
func TestLentStoreDirtiedBetweenHops(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := randomSeries(rng, 3, 2, 8, 40)
	inc, err := NewIncremental(s.Rate, s.NumAnts, s.NumTx, 5)
	if err != nil {
		t.Fatal(err)
	}
	inc.SetPeakWindow(64, 64)
	var lent PlaneStore
	dirty := dirtier(t, &lent, PrecisionFloat64, s)
	for ti := 0; ti < s.NumSlots(); ti++ {
		if err := inc.Append(seriesSnapshot(s, ti)); err != nil {
			t.Fatal(err)
		}
	}
	inc.SetPlanes(&lent)
	if _, err := inc.ExtendMatrix(0, 1); err != nil {
		t.Fatal(err)
	}
	inc.SetPlanes(nil)
	dirty()
	inc.SetPlanes(&lent)
	defer inc.SetPlanes(nil)
	got, err := inc.ExtendMatrix(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := windowEngineOf(s, 0, s.NumSlots(), PrecisionFloat64, KernelSequential)
	requireIdentical(t, "pair (2,1)", oracle.BaseMatrixSerial(2, 1, 5), got)
	view, err := inc.EngineView(nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSeries(t, "self 2", oracle.SelfSeries(2, 3, 1), view.SelfSeries(2, 3, 1))
}
