package sigproc

import (
	"math/cmplx"
	"testing"
)

func TestInterpolateMissingMidGap(t *testing.T) {
	frames := [][]complex128{
		{1 + 0i, 2 + 0i},
		nil,
		nil,
		{4 + 0i, 8 + 0i},
	}
	out := InterpolateMissing(frames)
	if out[1] == nil || out[2] == nil {
		t.Fatal("gaps not filled")
	}
	if cmplx.Abs(out[1][0]-2) > 1e-12 || cmplx.Abs(out[2][0]-3) > 1e-12 {
		t.Errorf("interp[1][0]=%v interp[2][0]=%v", out[1][0], out[2][0])
	}
	if cmplx.Abs(out[1][1]-4) > 1e-12 || cmplx.Abs(out[2][1]-6) > 1e-12 {
		t.Errorf("interp[1][1]=%v interp[2][1]=%v", out[1][1], out[2][1])
	}
}

func TestInterpolateMissingEdges(t *testing.T) {
	frames := [][]complex128{nil, {5 + 1i}, nil}
	out := InterpolateMissing(frames)
	if out[0] == nil || out[2] == nil {
		t.Fatal("edge gaps not filled")
	}
	if out[0][0] != 5+1i || out[2][0] != 5+1i {
		t.Error("edge fill should copy nearest valid frame")
	}
	// Edge fills must be copies, not aliases.
	out[0][0] = 0
	if frames[1][0] != 5+1i {
		t.Error("edge fill aliases source frame")
	}
}

func TestInterpolateMissingAllNilOrAllValid(t *testing.T) {
	allNil := [][]complex128{nil, nil}
	if out := InterpolateMissing(allNil); out[0] != nil || out[1] != nil {
		t.Error("all-nil input should be returned unchanged")
	}
	full := [][]complex128{{1}, {2}}
	out := InterpolateMissing(full)
	if out[0][0] != 1 || out[1][0] != 2 {
		t.Error("fully valid input should pass through")
	}
}
