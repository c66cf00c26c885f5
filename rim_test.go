package rim

import (
	"math"
	"testing"
)

// fastSystem builds a small simulated system for facade tests.
func fastSystem(seed int64) *System {
	arr := NewHexagonalArray()
	env := NewFreeSpaceEnvironment(FastRFConfig(), Vec2{}, Vec2{X: 10})
	return NewSystem(env, arr, RealisticReceiver(seed), FastCoreConfig(arr))
}

func TestSystemMeasureStraightMove(t *testing.T) {
	sys := fastSystem(1)
	tr := NewTrajectory(100, Pose{Pos: Vec2{X: 10}}).
		Pause(0.5).MoveDir(0, 1.0, 0.4).Pause(0.5).Build()
	res, err := sys.Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 || res.Segments[0].Kind != MotionTranslate {
		t.Fatalf("segments = %+v", res.Segments)
	}
	if math.Abs(res.Distance-1.0) > 0.12 {
		t.Errorf("distance = %v", res.Distance)
	}
	if math.Abs(Deg(res.Segments[0].HeadingBody)) > 5 {
		t.Errorf("heading = %v deg", Deg(res.Segments[0].HeadingBody))
	}
}

func TestSystemAcquireShape(t *testing.T) {
	sys := fastSystem(2)
	tr := NewTrajectory(100, Pose{Pos: Vec2{X: 10}}).Pause(0.3).Build()
	s, err := sys.Acquire(tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumAnts != 6 {
		t.Errorf("antennas = %d", s.NumAnts)
	}
	if sys.Array().NumAntennas() != 6 {
		t.Error("Array accessor wrong")
	}
	if sys.Config().Array != sys.Array() {
		t.Error("System must bind the array into the config")
	}
}

func TestFacadeConstructors(t *testing.T) {
	if NewLinear3Array().NumAntennas() != 3 {
		t.Error("linear3")
	}
	if NewLShapeArray().NumAntennas() != 3 {
		t.Error("lshape")
	}
	if got := NewOffice(); len(got.APs) != 7 {
		t.Error("office APs")
	}
	if DefaultRFConfig().NumSubcarriers != 114 {
		t.Error("default RF config")
	}
	if Deg(Rad(90)) != 90 {
		t.Error("Deg/Rad round trip")
	}
	if DefaultIMUConfig(1).Seed != 1 {
		t.Error("IMU config seed")
	}
	if DefaultFusionConfig(2).Seed != 2 {
		t.Error("fusion config seed")
	}
}

func TestSimulateIMUFacade(t *testing.T) {
	tr := NewTrajectory(100, Pose{}).Pause(0.2).Build()
	r := SimulateIMU(tr, DefaultIMUConfig(3))
	if len(r) != len(tr.Samples) {
		t.Error("IMU reading count")
	}
}

func TestParticleFilterFacade(t *testing.T) {
	f := NewParticleFilter(nil, Pose{}, DefaultFusionConfig(4))
	pose := f.Step(FusionInput{DistDelta: 0.1})
	if pose.Pos.Norm() == 0 {
		t.Error("filter did not move")
	}
}
