package trrs

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzBatchPlan fuzzes the cross-pair batched build: an arbitrary pair
// set (duplicates, reversals and self-pairs included) over an arbitrary
// window/lag geometry must produce exactly the rows the per-pair serial
// build produces — bit for bit, since the batch schedule is a pure
// reordering of independent row fills. The raw fuzz bytes drive the
// geometry and the pair list; the CSI itself is seeded random data.
func FuzzBatchPlan(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(40), uint8(5), uint8(4), []byte{0x01, 0x12, 0x21})
	f.Add(int64(2), uint8(2), uint8(7), uint8(9), uint8(1), []byte{0x00, 0x10, 0x01})
	f.Add(int64(3), uint8(4), uint8(70), uint8(3), uint8(2), []byte{0x23, 0x32, 0x23, 0x11})
	f.Fuzz(func(t *testing.T, seed int64, antsB, slotsB, wB, parB uint8, pairBytes []byte) {
		ants := 1 + int(antsB%4)    // 1..4 antennas
		slots := 1 + int(slotsB%80) // 1..80 slots (covers w > slots clipping)
		w := int(wB % 12)           // 0..11 lag window
		par := int(parB % 5)        // 0..4 workers
		if len(pairBytes) == 0 || len(pairBytes) > 12 {
			t.Skip()
		}
		pairs := make([]PairSpec, 0, len(pairBytes))
		for _, b := range pairBytes {
			pairs = append(pairs, PairSpec{I: int(b>>4) % ants, J: int(b&0xF) % ants})
		}
		rng := rand.New(rand.NewSource(seed))
		s := randomSeries(rng, ants, 1, 9, slots)
		e := NewEngine(s)
		e.par = par
		got := e.BaseMatrices(pairs, w)
		for k, p := range pairs {
			want := e.BaseMatrixSerial(p.I, p.J, w)
			if len(got[k].Vals) != len(want.Vals) {
				t.Fatalf("pair %d (%d,%d): %d slots, want %d", k, p.I, p.J, len(got[k].Vals), len(want.Vals))
			}
			for ti := range want.Vals {
				for c := range want.Vals[ti] {
					wv, gv := want.Vals[ti][c], got[k].Vals[ti][c]
					if math.Float64bits(wv) != math.Float64bits(gv) {
						t.Fatalf("pair %d (%d,%d) [%d][%d]: batched %x, want serial %x",
							k, p.I, p.J, ti, c, math.Float64bits(gv), math.Float64bits(wv))
					}
				}
			}
		}
	})
}
