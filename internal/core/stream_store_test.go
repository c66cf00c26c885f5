package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"rim/internal/array"
	"rim/internal/csi"
)

// requireSameCheckpoint fails unless two checkpoints are equal field by
// field and bit for bit (gob writes every float as its bits).
func requireSameCheckpoint(t *testing.T, name string, want, got *StreamCheckpoint) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: checkpoints differ", name)
	}
	var wb, gb bytes.Buffer
	if err := gob.NewEncoder(&wb).Encode(want); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&gb).Encode(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("%s: checkpoints differ in their bits", name)
	}
}

// ownershipFrame builds slot ti of s as a fresh frame, as the wire decoder
// does. Antenna 1 is reported missing with no rows (the stream holds its
// last good ones) over slots [120, 180); antenna 4 is reported missing
// with a caller-side interpolation (its own rows) over [220, 260).
func ownershipFrame(s *csi.Series, ti int) ([][][]complex128, []bool) {
	snap := make([][][]complex128, s.NumAnts)
	for a := range snap {
		snap[a] = make([][]complex128, s.NumTx)
	}
	freshFrame(s, ti, snap)
	miss := make([]bool, s.NumAnts)
	if ti >= 120 && ti < 180 {
		snap[1], miss[1] = nil, true
	}
	if ti >= 220 && ti < 260 {
		miss[4] = true
	}
	return snap, miss
}

// scribble overwrites every row and flag a caller handed to a push.
func scribble(snap [][][]complex128, miss []bool) {
	for a := range snap {
		for _, row := range snap[a] {
			for k := range row {
				row[k] = complex(math.NaN(), float64(k))
			}
		}
	}
	for a := range miss {
		miss[a] = !miss[a]
	}
}

// TestStreamerOwnsCommittedRows overwrites the caller's rows and loss
// mask after every push, hold-last and interpolated substitutes included.
// The estimates, the live checkpoints and the pinned restart points must
// be bit-identical to a run that leaves them alone: nothing the stream
// keeps refers to a caller's buffers.
func TestStreamerOwnsCommittedRows(t *testing.T) {
	arr := array.NewHexagonal(0.029)
	s := daemonLoopSeries(t, arr, 3, false, 1, 6)
	cfg := daemonStreamConfig(arr)
	type run struct {
		ests []Estimate
		cps  []*StreamCheckpoint
	}
	stream := func(overwrite bool) run {
		st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
		if err != nil {
			t.Fatal(err)
		}
		var r run
		for ti := 0; ti < s.NumSlots(); ti++ {
			snap, miss := ownershipFrame(s, ti)
			hops := st.hopSeq
			es, err := st.PushMaskedCtx(context.Background(), snap, miss)
			if err != nil && !errors.Is(err, ErrAnalysis) {
				t.Fatal(err)
			}
			if overwrite {
				scribble(snap, miss)
			}
			r.ests = append(r.ests, es...)
			if st.hopSeq != hops {
				st.Pin()
				if st.hopSeq%3 == 0 {
					r.cps = append(r.cps, st.Checkpoint())
				}
			}
			if ti%97 == 0 {
				if cp := st.PinnedCheckpoint(); cp != nil {
					r.cps = append(r.cps, cp)
				}
			}
		}
		r.ests = append(r.ests, st.Flush()...)
		return r
	}
	want, got := stream(false), stream(true)
	if len(want.ests) == 0 || len(want.cps) < 4 {
		t.Fatalf("the run finalized %d estimates and took %d checkpoints", len(want.ests), len(want.cps))
	}
	requireSameEstimates(t, want.ests, got.ests)
	if len(got.cps) != len(want.cps) {
		t.Fatalf("%d checkpoints, want %d", len(got.cps), len(want.cps))
	}
	for i := range want.cps {
		requireSameCheckpoint(t, fmt.Sprintf("checkpoint %d", i), want.cps[i], got.cps[i])
	}
}

// TestStreamerPinSurvivesWrap pins a restart point after a hop and keeps
// the stream running, without pinning again, until the raw ring must
// overwrite the pinned slots: the write copies the pin out first, and the
// ring stays at its peak. The pin must equal a live checkpoint taken when
// it was pinned, and a stream restored from it must hold the base matrices
// BaseMatrixSerial computes over its window and emit the uninterrupted
// stream's estimates, bit for bit.
func TestStreamerPinSurvivesWrap(t *testing.T) {
	arr := array.NewHexagonal(0.029)
	s := daemonLoopSeries(t, arr, 3, false, 2, 7)
	cfg := daemonStreamConfig(arr)
	st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	// Pin after the fifth hop, as the session does.
	ti := 0
	for ; st.hopSeq < 5; ti++ {
		pushSlot(t, st, s, ti, nil)
		pushSlot(t, golden, s, ti, nil)
	}
	st.Pin()
	atPin := st.Checkpoint()
	requireSameCheckpoint(t, "pin before any wrap", atPin, st.PinnedCheckpoint())
	st.Pin() // PinnedCheckpoint copied the pin out; hold the ring again
	cut := ti

	peak := st.raw.Capacity()
	for ; st.pin.cp == nil && ti < s.NumSlots(); ti++ {
		pushSlot(t, st, s, ti, nil)
	}
	if st.pin.cp == nil {
		t.Fatal("the stream never had to overwrite the pinned slots")
	}
	if c := st.raw.Capacity(); c != peak || c != st.span+st.hop {
		t.Fatalf("the raw ring holds %d slots after the wrap, want its peak %d = span + hop", c, st.span+st.hop)
	}
	pinned := st.PinnedCheckpoint()
	requireSameCheckpoint(t, "pin after the wrap", atPin, pinned)

	restored, err := NewStreamerFromCheckpoint(cfg, pinned)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []Estimate
	hops := 0
	for ti = cut; ti < s.NumSlots(); ti++ {
		es, _ := pushSlot(t, golden, s, ti, nil)
		want = append(want, es...)
		es, hop := pushSlot(t, restored, s, ti, nil)
		got = append(got, es...)
		if hop {
			hops++
			requireWindowMatrices(t, restored, fmt.Sprintf("restored hop %d", hops))
		}
	}
	if hops < 2 || len(got) == 0 {
		t.Fatalf("the restored stream ran %d hops and finalized %d estimates", hops, len(got))
	}
	requireSameEstimates(t, append(want, golden.Flush()...), append(got, restored.Flush()...))
}
