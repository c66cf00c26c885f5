package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"runtime"
	"testing"

	"rim/internal/sigproc"
	"rim/internal/trrs"
)

// goldenDigests are the SHA-256 digests of every output field of the
// Figs. 11–13 walks (see TestEstimateDigestGolden). A refactor that claims
// bit-identical estimates keeps them; a change that moves them is not
// bit-exact and must say so, not re-record them.
var goldenDigests = map[string]string{
	"distance/sequential/batch":  "e3bf5f05456e6d46761409f0d21573d09d0069ea8bccb503002d696ec6366e05",
	"distance/sequential/stream": "c8690dbfff67a47ad0a2924e27c6c52cb9ca02015a041755e161859e1fae044e",
	"distance/vector/batch":      "e1a4d87959820ac91d796db9104ef082de5e48233984226241a19daad7c965bc",
	"distance/vector/stream":     "09c0133d4d9ba74c537e636c4e63a2a3c6be57f5b33236a89842c5bc84ec9534",
	"heading/sequential/batch":   "a72a89188455d75113acfcee1c4a914e376475269f863d0fa736fb2af0547292",
	"heading/sequential/stream":  "fddea5a155d2bf6219be66106f030880c50e680962b3c0b1e77a31911ed0a7d5",
	"heading/vector/batch":       "0cbb23a37275729e5c40d1870361a64896e5f7c458fa7d2ab78cef757a5e7953",
	"heading/vector/stream":      "ad824e7a8285fe06574a9aa8f4d5a7a8cb149a2e24e021c322b396ed4e531f19",
	"rotation/sequential/batch":  "99d6faf3a2eb4ab0d085466d6d7b2a5aedcf25d3932a7958226d0c21042a22b0",
	"rotation/sequential/stream": "8c036fe69ba8eaccdf950186f0f09528d383727e7ccd163719df91904fae6f05",
	"rotation/vector/batch":      "a371766be8b1b034bfd53a893339e2b74dc9801fcf9d1579f2de8ad77eea5a6b",
	"rotation/vector/stream":     "cb3363b44b9110a15192658d9126767bf1cec8c6d1c41fcf517083735f4a6454",
	"heading/daemon/stream":      "417279106dae7bab3f9b28288da1f96c1f2096e911bf72adb172266e99007ebe",
}

// TestEstimateDigestGolden pins the exact bits of the batch and streaming
// outputs: segments, per-slot estimates, ZUPTs and the movement indicator
// of ProcessSeries, and the estimates of StreamSeries (span 3 s, hop
// 0.5 s), on the parity walks under both kernels, plus one stream built
// the way the daemon builds its config (no DefaultConfig, only the window
// and kernel set). The vector kernel's AVX2 sweep and math.Exp's FMA path
// change the low bits on other hosts, so the digests hold on amd64 with
// AVX2+FMA only.
func TestEstimateDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" || !sigproc.VecSupported() {
		t.Skip("digests are recorded on amd64 with AVX2+FMA")
	}
	check := func(t *testing.T, key string, v any) {
		t.Helper()
		h := sha256.New()
		hashValue(h, reflect.ValueOf(v))
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigests[key] {
			t.Errorf("%s digest = %s, want %s", key, got, goldenDigests[key])
		}
	}
	walks := parityWalks()
	for _, w := range walks {
		s := buildSeries(t, w.tr, w.arr, w.seed)
		for _, k := range []trrs.Kernel{trrs.KernelSequential, trrs.KernelVector} {
			name := w.name + "/" + k.String()
			t.Run(name, func(t *testing.T) {
				cfg := testConfigV20(w.arr)
				cfg.WindowSeconds = w.window
				cfg.Kernel = k
				res, err := ProcessSeries(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(t, name+"/batch", *res)
				es, err := StreamSeries(s, StreamConfig{Core: cfg, SpanSeconds: 3, HopSeconds: 0.5})
				if err != nil {
					t.Fatal(err)
				}
				check(t, name+"/stream", es)
			})
		}
	}
	w := walks[1]
	t.Run(w.name+"/daemon", func(t *testing.T) {
		s := buildSeries(t, w.tr, w.arr, w.seed)
		cfg := StreamConfig{
			Core:        Config{Array: w.arr, WindowSeconds: 0.3, Kernel: trrs.KernelVector},
			SpanSeconds: 3,
			HopSeconds:  0.5,
		}
		es, err := StreamSeries(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(t, w.name+"/daemon/stream", es)
	})
}

// hashValue feeds every field of v into h: integers and booleans as
// 64-bit words, floats through math.Float64bits, slices length-prefixed.
func hashValue(h hash.Hash, v reflect.Value) {
	var word [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(word[:], u)
		h.Write(word[:])
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	case reflect.Slice:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Bool:
		b := uint64(0)
		if v.Bool() {
			b = 1
		}
		put(b)
	default:
		panic("hashValue: unhandled kind " + v.Kind().String())
	}
}
