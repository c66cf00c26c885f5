//go:build !race

// Allocation counts are meaningless under the race detector
// (instrumentation allocates), hence the build tag.

package core

import (
	"errors"
	"testing"

	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/obs"
)

// TestStreamerIngestAllocFree pins the zero-allocation contract of a
// push that completes no hop: once the window has warmed up, ingest
// (validation, the window append, the incremental engine's Append and
// dead-antenna detection) allocates nothing on a hexagonal fast-config
// streamer at the daemon's span and hop, with every antenna present,
// with one antenna never seen (held at the zero row, then dead), and with
// the lag path switched on by a metrics registry.
func TestStreamerIngestAllocFree(t *testing.T) {
	arr := array.NewHexagonal(0.029)
	s := daemonLoopSeries(t, arr, 3, false, 1, 5)
	cases := []struct {
		name     string
		lost     int // antenna missing from every push (-1: none)
		observed bool
	}{
		{"present", -1, false},
		{"never-seen antenna", 2, false},
		{"observed", -1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := StreamConfig{Core: FastConfig(arr), SpanSeconds: 3, HopSeconds: 0.5}
			if tc.observed {
				cfg.Core.Obs = obs.NewRegistry()
			}
			st, err := NewStreamer(cfg, s.Rate, s.NumAnts, s.NumTx, s.NumSub)
			if err != nil {
				t.Fatal(err)
			}
			snaps, miss := replaySnapshots(s, tc.lost)
			k := 0
			push := func() {
				t := k % len(snaps)
				k++
				if _, err := st.PushMasked(snaps[t], miss); err != nil && !errors.Is(err, ErrAnalysis) {
					panic(err)
				}
			}
			// Warm up past the span plus several hops, then stop right
			// after a hop so the measured pushes complete none.
			for k < st.span+6*st.hop || st.pending != 0 {
				push()
			}
			if avg := testing.AllocsPerRun(st.hop-2, push); avg != 0 {
				t.Fatalf("a push that completes no hop allocates %.2f times, want 0", avg)
			}
			if st.pending != st.hop-1 {
				t.Fatalf("pending = %d after %d pushes, want %d: a measured push ran a hop",
					st.pending, st.hop-1, st.hop-1)
			}
		})
	}
}

// replaySnapshots pre-extracts s's per-slot snapshots, so a push harness
// allocates nothing itself. Antenna lost (unless -1) is nil in every
// snapshot and flagged in the returned mask.
func replaySnapshots(s *csi.Series, lost int) ([][][][]complex128, []bool) {
	snaps := make([][][][]complex128, s.NumSlots())
	for t := range snaps {
		snaps[t] = make([][][]complex128, s.NumAnts)
		for a := range snaps[t] {
			if a == lost {
				continue
			}
			snaps[t][a] = make([][]complex128, s.NumTx)
			for tx := range snaps[t][a] {
				snaps[t][a][tx] = s.H[a][tx][t]
			}
		}
	}
	miss := make([]bool, s.NumAnts)
	if lost >= 0 {
		miss[lost] = true
	}
	return snaps, miss
}

// TestStreamerPinAllocFree pins the zero-allocation contract of the
// session's per-hop restart point: on a warmed-up hexagonal streamer that
// pins after every hop, as the session does, a Pin allocates nothing, and
// neither does a push that completes no hop while the pin holds the raw
// ring's slots.
func TestStreamerPinAllocFree(t *testing.T) {
	arr := array.NewHexagonal(0.029)
	s := daemonLoopSeries(t, arr, 3, false, 1, 5)
	st, err := NewStreamer(StreamConfig{Core: FastConfig(arr), SpanSeconds: 3, HopSeconds: 0.5},
		s.Rate, s.NumAnts, s.NumTx, s.NumSub)
	if err != nil {
		t.Fatal(err)
	}
	snaps, miss := replaySnapshots(s, -1)
	k := 0
	push := func() {
		hops := st.hopSeq
		if _, err := st.PushMasked(snaps[k%len(snaps)], miss); err != nil && !errors.Is(err, ErrAnalysis) {
			panic(err)
		}
		k++
		if st.hopSeq != hops {
			st.Pin()
		}
	}
	for k < st.span+6*st.hop || st.pending != 0 {
		push()
	}
	if avg := testing.AllocsPerRun(20, st.Pin); avg != 0 {
		t.Fatalf("a steady-state Pin allocates %.2f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(st.hop-2, push); avg != 0 {
		t.Fatalf("a push that completes no hop under a pin allocates %.2f times, want 0", avg)
	}
	if st.pin.cp != nil {
		t.Fatal("a steady-state push copied the pin out of the raw ring")
	}
}
