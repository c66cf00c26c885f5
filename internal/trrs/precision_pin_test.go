//go:build amd64 && !amd64.v3

// The Go spec lets a compiler fuse x*y+z into one rounding; GOAMD64=v3
// and most other architectures do, which moves the low bits of the scalar
// kernels. The exact-bit pins below therefore hold on baseline amd64 only.

package trrs

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"rim/internal/sigproc"
)

// float32Fingerprint folds the exact bits of every value into one FNV-1a
// hash, in row-major order.
type float32Fingerprint struct{ h uint64 }

func (f *float32Fingerprint) add(vals ...float64) {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	f.h = f.h*1099511628211 ^ h.Sum64()
}

func (f *float32Fingerprint) addMatrices(ms ...*Matrix) {
	for _, m := range ms {
		for _, row := range m.Vals {
			f.add(row...)
		}
	}
}

// TestPrecisionFloat32Bits pins the exact bits float32 plane mode produces
// over a seeded series, which the tolerance suites cannot: the serial and
// batched engine builds (lag-sweep row fills), point queries (the scalar
// kernel behind Base and SelfSeries) and an incremental slide with head
// drops. Row fills go through the AVX2 sweep where the CPU has it and the
// portable sweep elsewhere; the two reduce lanes differently, so each has
// its own expected hash.
func TestPrecisionFloat32Bits(t *testing.T) {
	const w = 10
	pairs := []PairSpec{{I: 0, J: 1}, {I: 1, J: 0}, {I: 1, J: 1}, {I: 0, J: 2}}
	rng := rand.New(rand.NewSource(51))
	for _, tc := range []struct {
		name  string
		tones int
	}{{"tones30", 30}, {"tones7", 7}} {
		name := tc.name
		s := randomSeries(rng, 3, 2, tc.tones, 120)

		var serial, batch, point, incr float32Fingerprint
		e := NewEnginePrecision(s, PrecisionFloat32)
		for _, p := range pairs {
			serial.addMatrices(e.BaseMatrixSerial(p.I, p.J, w))
		}
		e.par = 2
		batch.addMatrices(e.BaseMatrices(pairs, w)...)
		point.add(e.SelfSeries(1, 3, 1)...)
		point.add(e.Base(0, 2, 40, 37), e.Base(2, 2, 5, 5))

		inc, err := NewIncrementalPrecision(s.Rate, s.NumAnts, s.NumTx, w, PrecisionFloat32)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for _, step := range []struct{ app, drop int }{{60, 0}, {30, 25}, {30, 28}} {
			for k := 0; k < step.app; k++ {
				if err := inc.Append(seriesSnapshot(s, next)); err != nil {
					t.Fatal(err)
				}
				next++
			}
			inc.DropFront(step.drop)
			ms, err := inc.ExtendMatrices(pairs)
			if err != nil {
				t.Fatal(err)
			}
			incr.addMatrices(ms...)
			view, err := inc.EngineView([]int{2, 0})
			if err != nil {
				t.Fatal(err)
			}
			incr.add(view.SelfSeries(1, 2, 1)...)
		}

		// Expected hashes: {AVX2 sweep, portable sweep}.
		want := map[string]map[string][2]uint64{
			"tones30": {
				"serial":      {0x7a80810f334dc879, 0x7d6a7381e8a19a55},
				"batch":       {0x7a80810f334dc879, 0x7d6a7381e8a19a55},
				"point":       {0x1f0641d96e6d96ec, 0x1f0641d96e6d96ec},
				"incremental": {0x2ef1011edd602bf3, 0xbd36028c401f57b7},
			},
			"tones7": {
				"serial":      {0x90836be1518ad778, 0x721960f7c407c99a},
				"batch":       {0x90836be1518ad778, 0x721960f7c407c99a},
				"point":       {0x6c513cd5e38cc965, 0x6c513cd5e38cc965},
				"incremental": {0xdc9bbb9b34afeffe, 0x8ae9ba8f0392b250},
			},
		}[name]
		path := 1
		if sigproc.VecSupported() {
			path = 0
		}
		for kind, got := range map[string]uint64{
			"serial": serial.h, "batch": batch.h, "point": point.h, "incremental": incr.h,
		} {
			if got != want[kind][path] {
				t.Errorf("%s %s: float32 fingerprint %#x, want %#x", name, kind, got, want[kind][path])
			}
		}
	}
}
