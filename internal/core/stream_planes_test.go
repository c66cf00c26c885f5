package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/trrs"
)

// requireWindowMatrices checks the base matrix of every pair st's last hop
// requested against BaseMatrixSerial on a batch engine over st's window,
// bit for bit.
func requireWindowMatrices(t *testing.T, st *Streamer, name string) {
	t.Helper()
	pairs := append([]trrs.PairSpec(nil), st.absPairs...)
	got, err := st.inc.ExtendMatrices(pairs)
	if err != nil {
		t.Fatal(err)
	}
	s := st.windowSeries(allAntennas(st.numAnts))
	oracle := trrs.NewEnginePrecision(s, st.cfg.Core.Precision)
	oracle.SetKernel(st.cfg.Core.Kernel)
	for n, p := range pairs {
		want := oracle.BaseMatrixSerial(p.I, p.J, st.wSlots)
		if len(got[n].Vals) != len(want.Vals) {
			t.Fatalf("%s pair %v: %d rows, want %d", name, p, len(got[n].Vals), len(want.Vals))
		}
		for r, row := range want.Vals {
			for c, v := range row {
				if math.Float64bits(got[n].Vals[r][c]) != math.Float64bits(v) {
					t.Fatalf("%s pair %v: entry (%d,%d) = %v, want %v", name, p, r, c, got[n].Vals[r][c], v)
				}
			}
		}
	}
}

// allAntennas returns the indices 0..n-1.
func allAntennas(n int) []int {
	ants := make([]int, n)
	for a := range ants {
		ants[a] = a
	}
	return ants
}

// pushSlot pushes slot ti of s with the given antennas reported missing
// (nil rows: the streamer holds their last good rows) and returns the
// estimates it finalized and whether it ran a hop.
func pushSlot(t *testing.T, st *Streamer, s *csi.Series, ti int, dead map[int]bool) ([]Estimate, bool) {
	t.Helper()
	snap := make([][][]complex128, s.NumAnts)
	miss := make([]bool, s.NumAnts)
	for a := range snap {
		if miss[a] = dead[a]; miss[a] {
			continue
		}
		snap[a] = make([][]complex128, s.NumTx)
		for tx := range snap[a] {
			snap[a][tx] = s.H[a][tx][ti]
		}
	}
	hops := st.hopSeq
	es, err := st.PushMasked(snap, miss)
	if err != nil && !errors.Is(err, ErrAnalysis) {
		t.Fatal(err)
	}
	return es, st.hopSeq != hops
}

// TestStreamerDeadAntennaBelowHeadEqualsSerial kills one antenna of the
// daemon's hexagonal walker mid-stream and revives it later. The
// sub-array fallback, and the full array after the revival, request
// pairs that were never built or last refreshed hops ago: those refreshes
// read below the steady reach, into a one-off plane store. After every
// hop each requested pair must match BaseMatrixSerial over the window bit
// for bit, and no remapped pair header may still point at a matrix, since
// a reflected twin's lives in the pooled hop scratch.
func TestStreamerDeadAntennaBelowHeadEqualsSerial(t *testing.T) {
	arr := array.NewHexagonal(0.029)
	s := daemonLoopSeries(t, arr, 3, false, 2, 3)
	st, err := NewStreamer(daemonStreamConfig(arr), s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	const deadAnt, dieAt, reviveAt = 4, 250, 500
	lastHop := map[trrs.PairSpec]int64{}
	stale, fellBack := false, false
	renorms := 0
	for ti := 0; ti < s.NumSlots(); ti++ {
		if _, hop := pushSlot(t, st, s, ti, map[int]bool{deadAnt: ti >= dieAt && ti < reviveAt}); !hop {
			continue
		}
		for k, hdr := range st.remapHdr {
			if hdr.Vals != nil {
				t.Fatalf("after hop %d the remapped header of pair %v still holds its rows", st.hopSeq, k)
			}
		}
		below := st.inc.Renormalized() > renorms
		requireWindowMatrices(t, st, fmt.Sprintf("hop %d", st.hopSeq))
		renorms = st.inc.Renormalized() // the check's own reads included
		fellBack = fellBack || st.dead[deadAnt]
		for _, p := range st.absPairs {
			if h, seen := lastHop[p]; (!seen && st.hopSeq > 1 || seen && h < st.hopSeq-1) && below {
				stale = true
			}
			lastHop[p] = st.hopSeq
		}
	}
	if !fellBack || len(st.remapHdr) == 0 {
		t.Fatal("the stream never fell back to the sub-array")
	}
	if !stale {
		t.Fatal("no hop refreshed a late or stale pair below the steady reach")
	}
}

// TestStreamerRestoreBelowHeadEqualsSerial restores a stream from a
// checkpoint mid-walk. The replay normalizes nothing, so the first hop
// after the restore builds every pair from the whole window, below the
// steady reach, in a one-off plane store. Its matrices must match
// BaseMatrixSerial over the window bit for bit, and the restored stream
// must emit the uninterrupted stream's estimates exactly.
func TestStreamerRestoreBelowHeadEqualsSerial(t *testing.T) {
	arr := array.NewHexagonal(0.029)
	s := daemonLoopSeries(t, arr, 3, false, 1, 4)
	cfg := daemonStreamConfig(arr)
	golden, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 340
	for ti := 0; ti < cut; ti++ {
		pushSlot(t, golden, s, ti, nil)
	}
	restored, err := NewStreamerFromCheckpoint(cfg, golden.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if planes, _ := restored.inc.HeldBytes(); planes != 0 {
		t.Fatalf("the replay normalized into %d plane bytes before any hop", planes)
	}
	var want, got []Estimate
	hops := 0
	for ti := cut; ti < s.NumSlots() && hops < 2; ti++ {
		es, _ := pushSlot(t, golden, s, ti, nil)
		want = append(want, es...)
		es, hop := pushSlot(t, restored, s, ti, nil)
		got = append(got, es...)
		if hop {
			if hops++; hops == 1 && restored.inc.Renormalized() == 0 {
				t.Fatal("the first hop after the restore did not read below the steady reach")
			}
			requireWindowMatrices(t, restored, fmt.Sprintf("restored hop %d", hops))
		}
	}
	if hops == 0 || len(got) == 0 {
		t.Fatal("no hop finalized estimates after the restore")
	}
	requireSameEstimates(t, append(want, golden.Flush()...), append(got, restored.Flush()...))
}
