package faults

import (
	"math"
	"testing"
)

func TestGilbertElliottMeanLoss(t *testing.T) {
	for _, target := range []float64{0.05, 0.2, 0.3, 0.5} {
		g := NewGilbertElliott(target, 20)
		m := &Model{Loss: g, Seed: 7}
		in := m.NewInjector(1)
		lost := 0
		const n = 200000
		for i := 0; i < n; i++ {
			if in.PacketLost(0) {
				lost++
			}
		}
		rate := float64(lost) / n
		if math.Abs(rate-target) > 0.02 {
			t.Errorf("empirical loss = %v, want ~%v", rate, target)
		}
	}
}

func TestGilbertElliottIsBursty(t *testing.T) {
	// Mean loss-run length of the bursty chain must clearly exceed the
	// i.i.d. value 1/(1-p).
	target, burst := 0.3, 30.0
	m := &Model{Loss: NewGilbertElliott(target, burst), Seed: 3}
	in := m.NewInjector(1)
	runs, runLen, cur := 0, 0, 0
	const n = 100000
	for i := 0; i < n; i++ {
		if in.PacketLost(0) {
			cur++
		} else if cur > 0 {
			runs++
			runLen += cur
			cur = 0
		}
	}
	mean := float64(runLen) / float64(runs)
	iid := 1 / (1 - target)
	if mean < 2*iid {
		t.Errorf("mean loss run = %.2f packets, want ≫ iid %.2f", mean, iid)
	}
}

func TestGilbertElliottIndependentNICs(t *testing.T) {
	m := &Model{Loss: NewGilbertElliott(0.3, 10), Seed: 1}
	in := m.NewInjector(2)
	same := 0
	const n = 50000
	for i := 0; i < n; i++ {
		a, b := in.PacketLost(0), in.PacketLost(1)
		if a == b {
			same++
		}
	}
	// Perfectly correlated chains would agree always; independent ones
	// agree on ~p²+(1-p)² = 0.58 of packets.
	if frac := float64(same) / n; frac > 0.75 {
		t.Errorf("NIC loss agreement %.2f, chains look correlated", frac)
	}
}

func TestDropoutWindows(t *testing.T) {
	perm := Dropout{Antenna: 1, Start: 2}
	if perm.Active(1.9) || !perm.Active(2) || !perm.Active(100) {
		t.Error("permanent dropout window wrong")
	}
	win := Dropout{Antenna: 0, Start: 1, End: 3}
	if win.Active(0.5) || !win.Active(2) || win.Active(3) {
		t.Error("bounded dropout window wrong")
	}
	flap := Dropout{Antenna: 0, Start: 0, PeriodSeconds: 1, DutyOff: 0.25}
	if !flap.Active(0.1) || flap.Active(0.5) || !flap.Active(1.2) || flap.Active(1.9) {
		t.Error("intermittent dropout phases wrong")
	}
}

func TestInjectorChainDeadAndGain(t *testing.T) {
	m := &Model{
		Dropouts: []Dropout{{Antenna: 2, Start: 1}},
		AGCSteps: []AGCStep{{T: 5, NIC: 0, GainDB: 6}, {T: 8, NIC: -1, GainDB: -6}},
	}
	in := m.NewInjector(2)
	if in.ChainDead(2, 0.5) || !in.ChainDead(2, 1.5) || in.ChainDead(0, 1.5) {
		t.Error("ChainDead wrong")
	}
	if g := in.Gain(0, 4); g != 1 {
		t.Errorf("gain before step = %v", g)
	}
	if g := in.Gain(0, 6); math.Abs(g-math.Pow(10, 6.0/20)) > 1e-12 {
		t.Errorf("gain after +6 dB step = %v", g)
	}
	if g := in.Gain(1, 6); g != 1 {
		t.Errorf("other NIC gain = %v", g)
	}
	if g := in.Gain(0, 9); math.Abs(g-1) > 1e-12 {
		t.Errorf("gain after compensating -6 dB step = %v", g)
	}
}

func TestInjectorNoiseBoost(t *testing.T) {
	m := &Model{Bursts: []Burst{{Start: 2, Duration: 1, SNRDropDB: 20}}}
	in := m.NewInjector(1)
	if b := in.NoiseBoost(1); b != 1 {
		t.Errorf("boost outside burst = %v", b)
	}
	if b := in.NoiseBoost(2.5); math.Abs(b-10) > 1e-12 {
		t.Errorf("boost during 20 dB burst = %v, want 10", b)
	}
}

func TestCorruptionAndDeterminism(t *testing.T) {
	m := &Model{Corrupt: Corruption{Prob: 0.2, NaN: true}, Seed: 5}
	run := func() []bool {
		in := m.NewInjector(1)
		out := make([]bool, 1000)
		for i := range out {
			c, nan := in.CorruptFrame()
			if c && !nan {
				t.Fatal("NaN corruption must report nan")
			}
			out[i] = c
		}
		return out
	}
	a, b := run(), run()
	n := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fault sequence not deterministic")
		}
		if a[i] {
			n++
		}
	}
	if n < 150 || n > 250 {
		t.Errorf("corrupt frames = %d/1000, want ~200", n)
	}
}

func TestNilModelSafety(t *testing.T) {
	var m *Model
	if err := m.Validate(3, 1); err != nil {
		t.Error(err)
	}
	in := m.NewInjector(1)
	if in != nil {
		t.Fatal("nil model must yield nil injector")
	}
	if in.PacketLost(0) || in.ChainDead(0, 1) || in.NoiseBoost(1) != 1 || in.Gain(0, 1) != 1 {
		t.Error("nil injector must be inert")
	}
	if c, _ := in.CorruptFrame(); c {
		t.Error("nil injector must not corrupt")
	}
}

func TestValidate(t *testing.T) {
	bad := []Model{
		{Dropouts: []Dropout{{Antenna: 5}}},
		{Dropouts: []Dropout{{Antenna: 0, PeriodSeconds: 1, DutyOff: 1.5}}},
		{AGCSteps: []AGCStep{{NIC: 3}}},
		{Corrupt: Corruption{Prob: 2}},
	}
	for i := range bad {
		if err := bad[i].Validate(3, 2); err == nil {
			t.Errorf("model %d must fail validation", i)
		}
	}
	ok := Model{
		Loss:     NewGilbertElliott(0.3, 10),
		Dropouts: []Dropout{{Antenna: 2, Start: 2}, {Antenna: 0, Start: 1, PeriodSeconds: 0.5, DutyOff: 0.3}},
		AGCSteps: []AGCStep{{T: 1, NIC: -1, GainDB: 12}},
		Corrupt:  Corruption{Prob: 0.01},
	}
	if err := ok.Validate(3, 2); err != nil {
		t.Error(err)
	}
}
