package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestFlightLastUnpacksLosslessly fills a recorder past its capacity (so
// the snapshot starts mid-ring) with events whose fields take extreme and
// out-of-order values, captures a bundle and checks that Last returns
// exactly the capture: equal to the bundle with the recorder's own events
// in place of the packed ones, and served by the handler as the same JSON
// bytes the bundle file holds.
func TestFlightLastUnpacksLosslessly(t *testing.T) {
	r := NewRecorder(256)
	dir := t.TempDir()
	f := NewFlight(FlightConfig{
		Recorder: r, Lookback: time.Hour, MinInterval: -1, Dir: dir,
		Health: func() any { return map[string]int{"alive": 2} },
	})
	extremes := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, 1 << 40, -(1 << 40)}
	now := r.Now()
	for i := 0; i < 300; i++ {
		x := extremes[i%len(extremes)]
		y := extremes[(i*3+1)%len(extremes)]
		r.EmitAt(Kind(i%int(numKinds)), x, y, int64(i)*x, -y, now+int64(i%5)*1000-2000, int64(i%3))
	}
	if !f.Offer(ReasonHopDeadline, 7, nil) {
		t.Fatal("Offer rejected")
	}
	got := f.Last()
	want := *got
	want.Events = r.Snapshot()
	if len(want.Events) == 0 || want.Events[0].Seq == 0 {
		t.Fatalf("the snapshot should start mid-ring, got %d events", len(want.Events))
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatal("Last differs from the unpacked capture")
	}
	if again := f.Last(); again == got || !reflect.DeepEqual(again, got) {
		t.Fatal("Last must unpack a fresh, equal bundle on every call")
	}

	wantJSON, err := os.ReadFile(filepath.Join(dir, "postmortem-1-hop_deadline.json"))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/postmortem", nil))
	if body := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")); !bytes.Equal(body, wantJSON) {
		t.Fatalf("/debug/postmortem serves %d bytes that differ from the %d-byte bundle file", len(body), len(wantJSON))
	}
	var unpacked bytes.Buffer
	enc := json.NewEncoder(&unpacked)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), unpacked.Bytes()) {
		t.Fatal("/debug/postmortem differs from the unpacked capture's JSON")
	}
}

// TestPackEventsEmpty keeps an empty capture an empty, non-nil list, which
// serializes as [] rather than null.
func TestPackEventsEmpty(t *testing.T) {
	b, _ := NewRecorder(16).pack(0)
	if evs := unpackEvents(b); evs == nil || len(evs) != 0 {
		t.Fatalf("unpacked %v, want an empty non-nil list", evs)
	}
}
