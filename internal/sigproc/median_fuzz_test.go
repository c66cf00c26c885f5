package sigproc

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// medianFilterSort is the sort-per-window running median MedianFilter
// replaced: each window is copied and sorted with sort.Float64s. It is the
// reference FuzzMedianFilter holds the sliding-window version to.
func medianFilterSort(x []float64, half int) []float64 {
	n := len(x)
	out := make([]float64, n)
	if half <= 0 {
		copy(out, x)
		return out
	}
	buf := make([]float64, 0, 2*half+1)
	for i := 0; i < n; i++ {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= n {
			hi = n - 1
		}
		buf = append(buf[:0], x[lo:hi+1]...)
		sort.Float64s(buf)
		m := len(buf)
		if m%2 == 1 {
			out[i] = buf[m/2]
		} else {
			out[i] = 0.5 * (buf[m/2-1] + buf[m/2])
		}
	}
	return out
}

// medianAlphabet is the value set of the tie-heavy fuzz encoding: NaNs of
// two payloads, both zeros, infinities and a few repeated numbers.
var medianAlphabet = []float64{
	math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Copysign(0, -1), 0,
	1, -1, 2, 0.5, math.Inf(1), math.Inf(-1), 1e-300, -3,
}

// decodeMedianInput turns fuzz bytes into a series. An odd first byte
// selects the alphabet encoding (one byte per sample, heavy on ties,
// NaNs and signed zeros); otherwise every 8 bytes are one raw float64.
func decodeMedianInput(data []byte) []float64 {
	if len(data) == 0 {
		return nil
	}
	var x []float64
	if data[0]%2 == 1 {
		for _, b := range data[1:] {
			x = append(x, medianAlphabet[int(b)%len(medianAlphabet)])
		}
		return x
	}
	for rest := data[1:]; len(rest) >= 8; rest = rest[8:] {
		x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
	}
	return x
}

// encodeAlphabet is the seed-side inverse of the alphabet encoding.
func encodeAlphabet(idx ...int) []byte {
	out := []byte{1}
	for _, i := range idx {
		out = append(out, byte(i))
	}
	return out
}

// encodeRaw is the seed-side inverse of the raw float64 encoding.
func encodeRaw(x ...float64) []byte {
	out := []byte{0}
	for _, v := range x {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// ambiguousTies reports whether x holds two values that compare equal under
// sort.Float64s but differ in bits (-0 and +0, or NaNs of different
// payloads): only then may an unstable sort order the window differently.
func ambiguousTies(x []float64) bool {
	var negZero, posZero bool
	nanBits := map[uint64]bool{}
	for _, v := range x {
		switch {
		case math.IsNaN(v):
			nanBits[math.Float64bits(v)] = true
		case v == 0 && math.Signbit(v):
			negZero = true
		case v == 0:
			posZero = true
		}
	}
	return (negZero && posZero) || len(nanBits) > 1
}

// FuzzMedianFilter holds the sliding-window MedianFilter to the sort-based
// reference: equal under == (NaN where it has NaN) on every input, and bit
// for bit whenever the sort cannot reorder ties — windows of at most 11
// samples (half ≤ 5, where the sort is an insertion sort and stable) or
// inputs without bit-distinct equal values.
func FuzzMedianFilter(f *testing.F) {
	for _, half := range []uint8{0, 1, 3, 5, 7, 50} {
		f.Add(encodeAlphabet(0, 2, 3, 4, 2, 3, 3, 5, 0, 1, 6, 2, 3, 8, 9, 10, 11, 7, 3, 2), half)
		f.Add(encodeRaw(1, math.NaN(), -2, math.Copysign(0, -1), 0, 3, 3, 0.25, math.Inf(1), -7, 0, 1), half)
	}
	f.Add(encodeAlphabet(), uint8(3))
	f.Add(encodeAlphabet(4), uint8(7))
	f.Add(encodeRaw(5, 4, 3, 2, 1, 0, -1, -2), uint8(1))
	long := []int{}
	for i := 0; i < 240; i++ {
		long = append(long, (i*7+i/13)%len(medianAlphabet))
	}
	f.Add(encodeAlphabet(long...), uint8(50))
	f.Fuzz(func(t *testing.T, data []byte, half uint8) {
		x := decodeMedianInput(data)
		h := int(half)
		got := MedianFilter(x, h)
		want := medianFilterSort(x, h)
		if len(got) != len(want) {
			t.Fatalf("len %d, want %d", len(got), len(want))
		}
		exact := h <= 5 || !ambiguousTies(x)
		for i := range want {
			g, w := got[i], want[i]
			if math.IsNaN(g) != math.IsNaN(w) || (!math.IsNaN(w) && g != w) {
				t.Fatalf("half %d: out[%d] = %v, want %v (input %v)", h, i, g, w, x)
			}
			if exact && math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("half %d: out[%d] bits %#x, want %#x (input %v)",
					h, i, math.Float64bits(g), math.Float64bits(w), x)
			}
		}
	})
}
