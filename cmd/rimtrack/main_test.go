package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rim/internal/array"
	"rim/internal/experiments"
	"rim/internal/obs/trace"
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

// TestTraceExport runs a degraded rimtrack in process with -trace-out and
// -postmortem-out. The trace must satisfy the minimal schema Perfetto and
// chrome://tracing need (traceEvents entries carrying name/ph/pid/tid, ts
// on spans and instants, no negative duration; spans, instants and
// metadata all present) and hold every pipeline stage the batch run times
// as a span under its stage name. The postmortem bundle the run drops must
// reconstruct the degraded run's frame→estimate lineage: a hop span, frame
// events inside its slot window, estimates and the bundle's own trigger.
func TestTraceExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "rimtrace.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-loss", "0.3", "-dead-ant", "2", "-trace-out", tracePath, "-postmortem-out", dir},
		&stdout, &stderr); code != 0 {
		t.Fatalf("rimtrack exited %d:\n%s", code, stderr.String())
	}

	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	readJSON(t, tracePath, &tf)
	if len(tf.TraceEvents) == 0 {
		t.Fatal("traceEvents missing or empty")
	}
	phases := map[string]bool{}
	spans := map[string]bool{}
	names := map[string]bool{}
	for _, e := range tf.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event missing %s: %v", k, e)
			}
		}
		ph, name := e["ph"].(string), e["name"].(string)
		phases[ph] = true
		names[name] = true
		if _, ok := e["ts"]; !ok && (ph == "X" || ph == "i") {
			t.Fatalf("event missing ts: %v", e)
		}
		if ph == "X" {
			spans[name] = true
			if d, _ := e["dur"].(float64); d < 0 {
				t.Fatalf("bad dur: %v", e)
			}
		}
	}
	if !phases["X"] || !phases["i"] || !phases["M"] {
		t.Errorf("phases %v, want X, i and M", phases)
	}
	if !names["hop"] || !names["estimate"] {
		t.Errorf("trace lacks hop or estimate events")
	}
	for _, k := range trace.Stages() {
		if k == trace.KindIngest {
			continue // the streamer's stage: rimtrack runs the batch pipeline
		}
		if !spans[k.String()] {
			t.Errorf("stage %s has no span in the trace", k)
		}
	}

	pms, err := filepath.Glob(filepath.Join(dir, "postmortem-*.json"))
	if err != nil || len(pms) == 0 {
		t.Fatalf("no postmortem bundle written (%v)", err)
	}
	var pm trace.Postmortem
	readJSON(t, pms[0], &pm)
	var hop *trace.Event
	for i := range pm.Events {
		if pm.Events[i].Kind == trace.KindHop {
			hop = &pm.Events[i]
			break
		}
	}
	if hop == nil {
		t.Fatal("bundle has no hop span")
	}
	var frames, ests, triggers int
	for _, e := range pm.Events {
		switch e.Kind {
		case trace.KindFrameAcquired, trace.KindPacketLost, trace.KindIngest:
			if hop.A <= e.Frame && e.Frame < hop.B {
				frames++
			}
		case trace.KindEstimate:
			ests++
		case trace.KindTrigger:
			triggers++
		}
	}
	if frames == 0 || ests == 0 {
		t.Errorf("lineage incomplete: %d frame events in hop [%d,%d), %d estimates", frames, hop.A, hop.B, ests)
	}
	if triggers == 0 {
		t.Error("bundle missing its trigger")
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
}
