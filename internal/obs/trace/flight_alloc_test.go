//go:build !race

// Allocation counts are meaningless under the race detector
// (instrumentation allocates), hence the build tag.

package trace

import "testing"

// TestPackEventsAllocatesItsBytes keeps a capture's packed events in one
// allocation of exactly their size.
func TestPackEventsAllocatesItsBytes(t *testing.T) {
	r := NewRecorder(1024)
	for i := 0; i < 1000; i++ {
		r.EmitAt(KindEstimate, int64(i/50), int64(i), int64(i%2), 3, int64(i)*1000, 0)
	}
	evs := r.Snapshot()
	var b []byte
	if n := testing.AllocsPerRun(5, func() { b = packEvents(evs) }); n != 1 {
		t.Fatalf("packing allocated %v times, want once", n)
	}
	if len(b) != cap(b) {
		t.Fatalf("packed %d bytes into a %d-byte buffer", len(b), cap(b))
	}
}
