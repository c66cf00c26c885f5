package session

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// wireFuzzSeeds returns RIMWIRE connections built by the writers: a full
// open/frame/close session (with and without a missing bitmap, one
// spilling into a second bitmap byte, one carrying NaN), a bare open, a
// stream cut mid-frame, and a wrong preamble.
func wireFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	var full bytes.Buffer
	must(WriteWirePreamble(&full))
	must(WriteOpen(&full, "walker-1", Spec{Rate: 100, NumAnts: 9, NumTx: 2, NumSub: 3}))
	must(WriteFrame(&full, "walker-1", wireFrame(9, 2, 3), []bool{false, true, false, false, false, false, false, false, true}))
	must(WriteFrame(&full, "walker-1", wireFrame(9, 2, 3), nil))
	nan := wireFrame(9, 2, 3)
	nan[4][1][2] = complex(math.NaN(), math.Inf(-1))
	must(WriteFrame(&full, "walker-1", nan, nil))
	must(WriteClose(&full, "walker-1"))

	var open bytes.Buffer
	must(WriteWirePreamble(&open))
	must(WriteOpen(&open, "", Spec{Rate: 200, NumAnts: 6, NumTx: 3, NumSub: 30}))

	var pair bytes.Buffer
	must(WriteWirePreamble(&pair))
	must(WriteOpen(&pair, "p", Spec{Rate: 100, NumAnts: 2, NumTx: 1, NumSub: 4}))
	must(WriteFrame(&pair, "p", wireFrame(2, 1, 4), []bool{true}))
	cut := pair.Bytes()[:pair.Len()-7]

	return [][]byte{full.Bytes(), open.Bytes(), cut, []byte("RIMWIRE0"), nil}
}

// wireAllocBudget is the most a decode of data may allocate under the
// reader's declared caps: the reader's 64 KiB input buffer, its payload
// buffer (which grows by doubling from wireGrowMin only as payload bytes
// arrive, so all its allocations sum to at most 2*wireGrowMin plus four
// times the largest payload present), and per message header in data a
// constant plus a constant factor of the payload bytes actually present.
// The length a header claims costs nothing until its bytes arrive.
func wireAllocBudget(data []byte) uint64 {
	budget := uint64(1<<16 + 4<<10 + 2*wireGrowMin)
	for off := len(wireMagic); off < len(data); {
		budget += 1 << 10
		if off+5 > len(data) {
			break
		}
		n := uint64(binary.LittleEndian.Uint32(data[off+1:]))
		if n > wireMaxPayload {
			break
		}
		present := min(n, uint64(len(data)-off-5))
		budget += 8<<10 + 12*present
		off += 5 + int(n)
	}
	return budget
}

// TestWireReaderAllocatesWhatArrives: a header claiming the 64 MiB cap,
// followed by 8 payload bytes and a hangup, must cost the reader only
// its buffers, not the claim.
func TestWireReaderAllocatesWhatArrives(t *testing.T) {
	msg := make([]byte, 5+8)
	msg[0] = MsgFrame
	binary.LittleEndian.PutUint32(msg[1:], wireMaxPayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewWireReader(bytes.NewReader(msg)).Read()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("truncated payload decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("a %d-byte message claiming %d bytes allocated %d bytes", len(msg), wireMaxPayload, got)
	}
}

// FuzzWireReader feeds arbitrary bytes to the RIMWIRE reader: the
// preamble, then messages until the first error. Invariants: no panic;
// the bytes allocated stay within wireAllocBudget; and every message that
// decodes re-encodes, through the writers, to exactly the bytes it was
// read from, so the reader accepts one encoding per message.
func FuzzWireReader(f *testing.F) {
	for _, seed := range wireFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var msgs []*Msg
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if ReadWirePreamble(bytes.NewReader(data)) == nil {
			wr := NewWireReader(bytes.NewReader(data[len(wireMagic):]))
			for {
				m, err := wr.Read()
				if err != nil {
					break
				}
				msgs = append(msgs, m)
			}
		}
		runtime.ReadMemStats(&after)
		if got, budget := after.TotalAlloc-before.TotalAlloc, wireAllocBudget(data); got > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), got, budget)
		}

		off := len(wireMagic)
		for i, m := range msgs {
			n := int(binary.LittleEndian.Uint32(data[off+1:]))
			raw := data[off : off+5+n]
			off += 5 + n
			var re bytes.Buffer
			var err error
			switch m.Type {
			case MsgOpen:
				err = WriteOpen(&re, m.ID, m.Spec)
			case MsgFrame:
				err = WriteFrame(&re, m.ID, m.Snap, m.Missing)
			case MsgClose:
				err = WriteClose(&re, m.ID)
			default:
				t.Fatalf("message %d decoded with unknown type %d", i, m.Type)
			}
			if err != nil {
				t.Fatalf("message %d (type %d) decoded but does not re-encode: %v", i, m.Type, err)
			}
			if !bytes.Equal(re.Bytes(), raw) {
				t.Fatalf("message %d (type %d) re-encodes to %x, read from %x", i, m.Type, re.Bytes(), raw)
			}
		}
	})
}
