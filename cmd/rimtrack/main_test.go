package main

import (
	"testing"

	"rim/internal/array"
	"rim/internal/experiments"
)

// TestFaultModelValidated pins that the -dead-ant flag is checked against
// the arrays a run collects with: an antenna the array lacks is an error,
// not a fault-free run.
func TestFaultModelValidated(t *testing.T) {
	hex := array.NewHexagonal(experiments.Spacing)
	lin := array.NewLinear3(experiments.Spacing)

	if fm, err := faultModel(0, -1, 2, 1, hex); fm != nil || err != nil {
		t.Errorf("no fault flags = (%v, %v), want no model", fm, err)
	}
	fm, err := faultModel(0.3, 2, 2, 1, hex)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Loss == nil || len(fm.Dropouts) != 1 || fm.Dropouts[0].Antenna != 2 || fm.Dropouts[0].Start != 2 {
		t.Errorf("model = %+v, want loss and antenna 2 dead from 2 s", fm)
	}
	for _, bad := range []struct {
		ant  int
		arrs []*array.Array
	}{
		{9, []*array.Array{hex}},
		{6, []*array.Array{hex}},
		{4, []*array.Array{hex, lin}}, // -fused also collects with the linear array
	} {
		if fm, err := faultModel(0, bad.ant, 2, 1, bad.arrs...); err == nil {
			t.Errorf("-dead-ant %d on %d arrays accepted: %+v", bad.ant, len(bad.arrs), fm)
		}
	}
}
