//go:build !race

// Allocation counts are meaningless under the race detector
// (instrumentation allocates), hence the build tag.

package trace

import (
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestPackEventsAllocatesItsBytes keeps a capture's packed events in one
// allocation of exactly their size.
func TestPackEventsAllocatesItsBytes(t *testing.T) {
	r := NewRecorder(1024)
	for i := 0; i < 1000; i++ {
		r.EmitAt(KindEstimate, int64(i/50), int64(i), int64(i%2), 3, int64(i)*1000, 0)
	}
	var b []byte
	if n := testing.AllocsPerRun(5, func() { b, _ = r.pack(math.MinInt64) }); n != 1 {
		t.Fatalf("packing allocated %v times, want once", n)
	}
	if len(b) != cap(b) {
		t.Fatalf("packed %d bytes into a %d-byte buffer", len(b), cap(b))
	}
}

// TestFlightCaptureWithoutDirPacksFromTheRing captures a full ring with no
// bundle directory: the events go from the ring straight into their packed
// form, so the capture allocates little more than the packed bytes it
// keeps, never the ring's worth of Event values a snapshot takes.
func TestFlightCaptureWithoutDirPacksFromTheRing(t *testing.T) {
	const events = 1 << 12
	r := NewRecorder(events)
	f := NewFlight(FlightConfig{Recorder: r, Lookback: time.Hour, MinInterval: -1})
	for i := 0; i < events; i++ {
		r.Emit(KindEstimate, int64(i/50), int64(i), int64(i%2), 3)
	}
	f.Offer(ReasonDegradedEstimates, 1, nil) // warm up the logger's path
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.Offer(ReasonDegradedEstimates, 2, nil)
	runtime.ReadMemStats(&after)
	f.mu.Lock()
	kept := len(f.lastEvents)
	f.mu.Unlock()
	snapshot := events * int(unsafe.Sizeof(Event{}))
	if got := int(after.TotalAlloc - before.TotalAlloc); got > kept+snapshot/8 {
		t.Fatalf("a capture allocated %d bytes for %d packed ones (a snapshot takes %d)", got, kept, snapshot)
	}
}
