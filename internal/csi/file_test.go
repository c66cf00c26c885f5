package csi

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rim/internal/array"
	"rim/internal/geom"
	"rim/internal/traj"
)

func TestSeriesFileRoundTrip(t *testing.T) {
	env := testEnv()
	arr := array.NewLinear3(0.029)
	tr := shortTraj(100)
	s, err := Collect(env, arr, tr, RealisticReceiver(5)).Process(true)
	if err != nil {
		t.Fatal(err)
	}
	meta := FileMeta{Motion: "line", Array: "linear3", Seed: 5}
	truth := []FileTruth{{T: 0, X: 10, Y: 0}}

	var buf bytes.Buffer
	if err := WriteSeries(&buf, s, meta, truth); err != nil {
		t.Fatal(err)
	}
	back, ff, err := ReadSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ff.Meta.Motion != "line" || ff.Meta.Array != "linear3" {
		t.Errorf("meta lost: %+v", ff.Meta)
	}
	if len(ff.Truth) != 1 || ff.Truth[0].X != 10 {
		t.Errorf("truth lost: %+v", ff.Truth)
	}
	if back.Rate != s.Rate || back.NumAnts != s.NumAnts ||
		back.NumTx != s.NumTx || back.NumSub != s.NumSub {
		t.Fatalf("shape mismatch: %+v", back)
	}
	if back.NumSlots() != s.NumSlots() {
		t.Fatalf("slots = %d, want %d", back.NumSlots(), s.NumSlots())
	}
	for _, idx := range [][3]int{{0, 0, 0}, {2, 1, 5}, {1, 2, 10}} {
		a, tx, slot := idx[0], idx[1], idx[2]
		for k := range s.H[a][tx][slot] {
			if s.H[a][tx][slot][k] != back.H[a][tx][slot][k] {
				t.Fatalf("CSI value changed at a=%d tx=%d slot=%d k=%d", a, tx, slot, k)
			}
		}
	}
}

func TestReadSeriesErrors(t *testing.T) {
	if _, _, err := ReadSeries(strings.NewReader("not json")); err == nil {
		t.Error("garbage must error")
	}
	// Valid JSON, empty CSI.
	if _, _, err := ReadSeries(strings.NewReader(`{"meta":{"rate_hz":100},"csi":[]}`)); err == nil {
		t.Error("empty CSI must error")
	}
	// Missing rate.
	if _, _, err := ReadSeries(strings.NewReader(`{"meta":{},"csi":[[[[ [1,2] ]]]]}`)); err == nil {
		t.Error("zero rate must error")
	}
	// Shape mismatch: meta says 2 antennas, data has 1.
	bad := `{"meta":{"rate_hz":100,"num_antennas":2,"num_tx":1,"num_subcarriers":1},"csi":[[[[[1,2]]]]]}`
	if _, _, err := ReadSeries(strings.NewReader(bad)); err == nil {
		t.Error("antenna mismatch must error")
	}
	// Tone count mismatch.
	bad2 := `{"meta":{"rate_hz":100,"num_antennas":1,"num_tx":1,"num_subcarriers":3},"csi":[[[[[1,2]]]]]}`
	if _, _, err := ReadSeries(strings.NewReader(bad2)); err == nil {
		t.Error("tone mismatch must error")
	}
}

func TestFileSeriesPipelineCompatible(t *testing.T) {
	// A series that went through serialization must drive the TRRS engine
	// identically — guard against accidental layout changes.
	env := testEnv()
	arr := array.NewLinear3(0.029)
	tr := traj.Line(100, geom.Vec2{X: 10}, 0, 0, 0.3, 0.5)
	s, err := Collect(env, arr, tr, ReceiverConfig{}).Process(false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSeries(&buf, s, FileMeta{}, nil); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	k1 := trrsVal(s.H[0][0][0], s.H[2][0][5])
	k2 := trrsVal(back.H[0][0][0], back.H[2][0][5])
	if k1 != k2 {
		t.Errorf("TRRS changed across serialization: %v vs %v", k1, k2)
	}
}

func trrsVal(a, b []complex128) float64 { return trrs(a, b) }

// TestReadSeriesHostileHeader: a header whose shape the CSI does not back
// is rejected, without a panic and without allocating what the header
// claims.
func TestReadSeriesHostileHeader(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"negative antennas", `{"meta":{"rate_hz":1,"num_antennas":-1,"num_tx":1,"num_subcarriers":1},"csi":[[]]}`},
		{"negative tx", `{"meta":{"rate_hz":1,"num_antennas":1,"num_tx":-3,"num_subcarriers":1},"csi":[[[]]]}`},
		{"negative tones", `{"meta":{"rate_hz":1,"num_antennas":1,"num_tx":1,"num_subcarriers":-2},"csi":[[[[]]]]}`},
		{"zero antennas", `{"meta":{"rate_hz":1,"num_antennas":0,"num_tx":1,"num_subcarriers":1},"csi":[[]]}`},
		{"zero tones", `{"meta":{"rate_hz":1,"num_antennas":1,"num_tx":1,"num_subcarriers":0},"csi":[[[[]]]]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := ReadSeries(strings.NewReader(tc.in)); err == nil {
				t.Errorf("ReadSeries(%s) accepted a header the data does not back", tc.in)
			}
		})
	}

	// 1<<20 antennas over one empty slot: the header alone used to size
	// ~100 MB of per-antenna slices before the first slot was checked.
	in := `{"meta":{"rate_hz":1,"num_antennas":1048576,"num_tx":1,"num_subcarriers":1},"csi":[[]]}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadSeries(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("1<<20-antenna header over one empty slot accepted")
	}
	if got, budget := after.TotalAlloc-before.TotalAlloc, readAllocBudget([]byte(in)); got > budget {
		t.Errorf("a %d-byte recording allocated %d bytes, budget %d", len(in), got, budget)
	}
}

// readAllocBudget is the most ReadSeries may allocate for data: the JSON
// decoder and the Series both grow with the CSI actually present, at well
// under 64 bytes per input byte (a 10-byte one-tone slot `[[[[0,0]]]],`
// costs ~150 B across decode and conversion), plus a fixed allowance for
// the decoder's own state.
func readAllocBudget(data []byte) uint64 { return 64*uint64(len(data)) + 64<<10 }

// FuzzReadSeries feeds arbitrary bytes to ReadSeries. It must never panic,
// must allocate within readAllocBudget, and every recording it accepts
// must survive WriteSeries → ReadSeries unchanged: the same shape, rate,
// meta, truth and CSI bits.
func FuzzReadSeries(f *testing.F) {
	s := &Series{Rate: 100, NumAnts: 2, NumTx: 1, NumSub: 3, H: make([][][][]complex128, 2)}
	for a := range s.H {
		s.H[a] = [][][]complex128{make([][]complex128, 4)}
		for ti := range s.H[a][0] {
			s.H[a][0][ti] = []complex128{complex(float64(a), -0.5), complex(1e-300, float64(ti)), 3.25}
		}
	}
	var buf bytes.Buffer
	if err := WriteSeries(&buf, s, FileMeta{Motion: "line", Array: "pair", Seed: 7}, []FileTruth{{T: 0.5, X: 1, Theta: -1}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"meta":{"rate_hz":1,"num_antennas":-1,"num_tx":1,"num_subcarriers":1},"csi":[[]]}`))
	f.Add([]byte(`{"meta":{"rate_hz":1,"num_antennas":1,"num_tx":-3,"num_subcarriers":1},"csi":[[[]]]}`))
	f.Add([]byte(`{"meta":{"rate_hz":1,"num_antennas":1048576,"num_tx":1,"num_subcarriers":1},"csi":[[]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, ff, err := ReadSeries(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n, budget := after.TotalAlloc-before.TotalAlloc, readAllocBudget(data); n > budget {
			t.Fatalf("reading %d bytes allocated %d, budget %d", len(data), n, budget)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteSeries(&out, got, ff.Meta, ff.Truth); err != nil {
			t.Fatalf("re-encoding an accepted recording: %v", err)
		}
		back, ff2, err := ReadSeries(&out)
		if err != nil {
			t.Fatalf("re-reading a re-encoded recording: %v", err)
		}
		if ff2.Meta != ff.Meta || !slices.Equal(ff2.Truth, ff.Truth) {
			t.Fatalf("envelope changed: %+v %+v, want %+v %+v", ff2.Meta, ff2.Truth, ff.Meta, ff.Truth)
		}
		if back.Rate != got.Rate || back.NumAnts != got.NumAnts || back.NumTx != got.NumTx ||
			back.NumSub != got.NumSub || back.NumSlots() != got.NumSlots() {
			t.Fatalf("shape changed: %+v, want %+v", back, got)
		}
		for a := range got.H {
			for tx := range got.H[a] {
				for ti, v := range got.H[a][tx] {
					for k, c := range v {
						w := back.H[a][tx][ti][k]
						if math.Float64bits(real(c)) != math.Float64bits(real(w)) ||
							math.Float64bits(imag(c)) != math.Float64bits(imag(w)) {
							t.Fatalf("CSI [%d][%d][%d][%d] = %v, want %v", a, tx, ti, k, w, c)
						}
					}
				}
			}
		}
	})
}
