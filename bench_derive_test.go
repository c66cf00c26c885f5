package rim

import (
	"math"
	"math/rand"
	"testing"

	"rim/internal/array"
	"rim/internal/geom"
	"rim/internal/trrs"
)

// derivedHop is the derived-matrix work of one hexagonal hop at the
// daemon's point (span 3 s + hop 0.5 s at 100 Hz = 350 rows, W = 0.3 s =
// 30 lags, V = 30) on random base matrices: 9 parallel groups (6 of them
// pair averages) and 6 ring pairs, 3 of which are reversed twins of group
// pairs. threePass builds them the way the pipeline did before the
// one-pass derive, into preallocated matrices as the arena recycled them:
// each twin reflected into a matrix, each average into another, then
// the box filter in three row passes. onePass runs trrs.Scratch.Derive
// per derived matrix through one warmed scratch.
type derivedHop struct {
	ins       [][]trrs.Input
	v         int
	scr       trrs.Scratch
	twins     []*trrs.Matrix
	avgs, vms []*trrs.Matrix
}

func newDerivedHop(tb testing.TB) *derivedHop {
	tb.Helper()
	const slots, w, v = 350, 30, 30
	arr := array.NewHexagonal(0.029)
	rng := rand.New(rand.NewSource(7))
	base := map[array.Pair]*trrs.Matrix{}
	input := func(p array.Pair) trrs.Input {
		if m, ok := base[array.Pair{I: p.J, J: p.I}]; ok {
			return trrs.Input{M: m, Twin: true}
		}
		if base[p] == nil {
			base[p] = randomMatrix(rng, p, w, slots)
		}
		return trrs.Input{M: base[p]}
	}
	h := &derivedHop{v: v}
	for _, g := range arr.ParallelGroups(geom.Rad(2), 1e-6) {
		var ins []trrs.Input
		for _, p := range g.Pairs {
			ins = append(ins, input(p))
		}
		h.ins = append(h.ins, ins)
	}
	for _, p := range arr.AdjacentRing() {
		h.ins = append(h.ins, []trrs.Input{input(p)})
	}
	for _, ins := range h.ins {
		for _, in := range ins {
			if in.Twin {
				h.twins = append(h.twins, randomMatrix(rng, array.Pair{}, w, slots))
			}
		}
		if len(ins) > 1 {
			h.avgs = append(h.avgs, randomMatrix(rng, array.Pair{}, w, slots))
		}
		h.vms = append(h.vms, randomMatrix(rng, array.Pair{}, w, slots))
	}
	if len(h.vms) != 15 || len(h.avgs) != 6 || len(h.twins) != 3 {
		tb.Fatalf("hexagonal hop derives %d matrices from %d averages and %d twins, want 15, 6, 3",
			len(h.vms), len(h.avgs), len(h.twins))
	}
	h.onePass()
	for k, m := range h.threePass() {
		got, err := h.scr.Derive(h.ins[k], v)
		if err != nil {
			tb.Fatal(err)
		}
		for t, row := range m.Vals {
			for c, want := range row {
				if math.Float64bits(got.Vals[t][c]) != math.Float64bits(want) {
					tb.Fatalf("derived matrix %d [%d][%d]: one pass %v, three passes %v", k, t, c, got.Vals[t][c], want)
				}
			}
		}
	}
	return h
}

func randomMatrix(rng *rand.Rand, p array.Pair, w, slots int) *trrs.Matrix {
	m := &trrs.Matrix{I: p.I, J: p.J, W: w, Rate: 100, Vals: make([][]float64, slots)}
	for t := range m.Vals {
		m.Vals[t] = make([]float64, 2*w+1)
		for c := range m.Vals[t] {
			m.Vals[t][c] = rng.Float64()
		}
	}
	return m
}

// onePass derives the hop's matrices.
func (h *derivedHop) onePass() {
	h.scr.Arena.Reset()
	for _, ins := range h.ins {
		if _, err := h.scr.Derive(ins, h.v); err != nil {
			panic(err)
		}
	}
}

// threePass derives the hop's matrices the three-pass way and returns
// them, in h.ins order.
func (h *derivedHop) threePass() []*trrs.Matrix {
	twin, avg := 0, 0
	for k, ins := range h.ins {
		src := make([]*trrs.Matrix, 0, 3)
		for _, in := range ins {
			m := in.M
			if in.Twin {
				m = h.twins[twin]
				twin++
				w := in.M.W
				for t, row := range m.Vals {
					for c := range row {
						if st := t - (c - w); st >= 0 && st < len(in.M.Vals) {
							row[c] = in.M.Vals[st][2*w-c]
						} else {
							row[c] = 0
						}
					}
				}
			}
			src = append(src, m)
		}
		a := src[0]
		if len(src) > 1 {
			a = h.avgs[avg]
			avg++
			inv := 1 / float64(len(src))
			for t, row := range a.Vals {
				copy(row, src[0].Vals[t])
				for _, m := range src[1:] {
					in := m.Vals[t]
					for c := range row {
						row[c] += in[c]
					}
				}
				for c := range row {
					row[c] *= inv
				}
			}
		}
		threePassBoxFilter(h.vms[k].Vals, a.Vals, h.v/2)
	}
	return h.vms
}

// threePassBoxFilter is the box filter in three row passes: write the
// output row, add the entering row, subtract the leaving one.
func threePassBoxFilter(dst, src [][]float64, half int) {
	t, l := len(src), len(src[0])
	sums := make([]float64, l)
	count := 0
	for i := 0; i <= half && i < t; i++ {
		for j := 0; j < l; j++ {
			sums[j] += src[i][j]
		}
		count++
	}
	for i := 0; i < t; i++ {
		inv := 1 / float64(count)
		for j := 0; j < l; j++ {
			dst[i][j] = sums[j] * inv
		}
		if add := i + half + 1; add < t {
			row := src[add]
			for j := 0; j < l; j++ {
				sums[j] += row[j]
			}
			count++
		}
		if rem := i - half; rem >= 0 {
			row := src[rem]
			for j := 0; j < l; j++ {
				sums[j] -= row[j]
			}
			count--
		}
	}
}

// BenchmarkDerivedHexaHop times one hexagonal hop's derived matrices,
// three passes against one.
func BenchmarkDerivedHexaHop(b *testing.B) {
	h := newDerivedHop(b)
	b.Run("three-pass", func(b *testing.B) {
		for range b.N {
			h.threePass()
		}
	})
	b.Run("one-pass", func(b *testing.B) {
		for range b.N {
			h.onePass()
		}
	})
}
