package session

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"rim/internal/array"
	"rim/internal/core"
)

// fuzzStreamTemplate is a daemon-shaped stream configuration (rimserved's
// span, hop and window) the fuzzed checkpoints restore into.
var fuzzStreamTemplate = core.StreamConfig{
	Core:        core.Config{WindowSeconds: 0.3},
	SpanSeconds: 3,
	HopSeconds:  0.5,
}

// canonicalArrayFor is rimserved's antenna-count-to-array mapping.
func canonicalArrayFor(n int) (*array.Array, error) {
	switch n {
	case 2:
		return array.NewPairArray(0.029), nil
	case 3:
		return array.NewLinear3(0.029), nil
	case 6:
		return array.NewHexagonal(0.029), nil
	}
	return nil, fmt.Errorf("no array with %d antennas", n)
}

// fuzzFrame is one finite frame of spec's shape.
func fuzzFrame(rng *rand.Rand, spec Spec) [][][]complex128 {
	f := make([][][]complex128, spec.NumAnts)
	for a := range f {
		f[a] = make([][]complex128, spec.NumTx)
		for tx := range f[a] {
			f[a][tx] = make([]complex128, spec.NumSub)
			for k := range f[a][tx] {
				f[a][tx][k] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
	}
	return f
}

// checkpointFuzzSeeds returns RIMCKPT files written by EncodeCheckpoint:
// a real streamer captured mid-walk (with lost slots), one captured
// before its first frame, one without stream state, and one cut short.
func checkpointFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	spec := Spec{Rate: 20, NumAnts: 3, NumTx: 1, NumSub: 4}
	arr, _ := canonicalArrayFor(spec.NumAnts)
	cfg := fuzzStreamTemplate
	cfg.Core.Array = arr
	encode := func(cp *Checkpoint) []byte {
		var b bytes.Buffer
		if err := EncodeCheckpoint(&b, cp); err != nil {
			tb.Fatal(err)
		}
		return b.Bytes()
	}
	st, err := core.NewStreamer(cfg, spec.Rate, spec.NumAnts, spec.NumTx, spec.NumSub)
	if err != nil {
		tb.Fatal(err)
	}
	fresh := encode(&Checkpoint{ID: "walker-0001", Spec: spec, Stream: st.Checkpoint()})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 75; i++ {
		if _, err := st.PushMasked(fuzzFrame(rng, spec), []bool{i%7 == 0, false, false}); err != nil && !errors.Is(err, core.ErrAnalysis) {
			tb.Fatal(err)
		}
	}
	walked := encode(&Checkpoint{ID: "walker-0000", Spec: spec, SavedUnixNs: 1, Stream: st.Checkpoint()})
	bare := encode(&Checkpoint{ID: "bare", Spec: spec})
	// The bare gob payloads too, which the target frames with a valid
	// header and checksum.
	return [][]byte{walked, fresh, bare, walked[:len(walked)/2], nil, walked[22:], fresh[22:], bare[22:]}
}

// frameCheckpoint wraps payload in a valid RIMCKPT header and checksum,
// so fuzzed payloads reach the gob decoder and the restore path instead
// of stopping at the checksum.
func frameCheckpoint(payload []byte) []byte {
	hdr := make([]byte, 22, 22+len(payload))
	copy(hdr, checkpointMagic)
	binary.LittleEndian.PutUint16(hdr[8:], checkpointVersion)
	binary.LittleEndian.PutUint64(hdr[10:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[18:], crc32.ChecksumIEEE(payload))
	return append(hdr, payload...)
}

// checkpointAllocBudget is the most a decode of data may allocate: a
// constant (gob compiles its decoding engine for the checkpoint types on
// every decode) plus a constant factor of the bytes actually present. The
// payload length a header claims costs nothing until its bytes arrive.
func checkpointAllocBudget(data []byte) uint64 {
	return 256<<10 + 64*uint64(len(data))
}

// FuzzCheckpoint feeds arbitrary bytes to the RIMCKPT decoder a booting
// daemon reads its sessions from, and restores what decodes the way
// Registry.Restore does. Invariants: no panic; the decode allocates
// within checkpointAllocBudget; a checkpoint that decodes re-encodes to
// exactly the bytes it was read from; and it either restores into a
// stream that accepts a frame of its shape or is rejected with an error.
func FuzzCheckpoint(f *testing.F) {
	for _, seed := range checkpointFuzzSeeds(f) {
		f.Add(seed)
	}
	factory, err := NewCoreFactory(CoreFactoryConfig{Template: fuzzStreamTemplate, ArrayFor: canonicalArrayFor})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCheckpoint(t, factory, data)
		checkCheckpoint(t, factory, frameCheckpoint(data))
	})
}

func checkCheckpoint(t *testing.T, factory StreamFactory, data []byte) {
	cp, got, err := decodeAllocs(data)
	if budget := checkpointAllocBudget(data); got > budget {
		t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), got, budget)
	}
	if err != nil {
		return
	}
	var re bytes.Buffer
	if err := EncodeCheckpoint(&re, cp); err != nil {
		t.Fatalf("decoded checkpoint does not re-encode: %v", err)
	}
	if n := re.Len(); n > len(data) || !bytes.Equal(re.Bytes(), data[:n]) {
		t.Fatalf("checkpoint re-encodes to %d bytes that differ from the %d read", n, len(data))
	}
	stream, err := factory(cp.ID, cp.Spec, cp.Stream)
	if err != nil {
		return
	}
	frame := fuzzFrame(rand.New(rand.NewSource(1)), cp.Spec)
	if _, err := stream.PushMaskedCtx(context.Background(), frame, nil); err != nil && !errors.Is(err, core.ErrAnalysis) {
		t.Fatalf("restored stream rejects a frame of its shape: %v", err)
	}
}

// decodeAllocs decodes data, also returning the bytes the decode allocated.
func decodeAllocs(data []byte) (*Checkpoint, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cp, err := DecodeCheckpoint(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return cp, after.TotalAlloc - before.TotalAlloc, err
}

// TestCheckpointSeedRestores keeps FuzzCheckpoint's restore invariant
// from passing vacuously: the mid-walk seed decodes, restores into a
// streamer and takes a frame.
func TestCheckpointSeedRestores(t *testing.T) {
	cp, err := DecodeCheckpoint(bytes.NewReader(checkpointFuzzSeeds(t)[0]))
	if err != nil {
		t.Fatal(err)
	}
	factory, err := NewCoreFactory(CoreFactoryConfig{Template: fuzzStreamTemplate, ArrayFor: canonicalArrayFor})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := factory(cp.ID, cp.Spec, cp.Stream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.PushMaskedCtx(context.Background(), fuzzFrame(rand.New(rand.NewSource(1)), cp.Spec), nil); err != nil && !errors.Is(err, core.ErrAnalysis) {
		t.Fatal(err)
	}
}

// TestCheckpointDecodeAllocatesWhatArrives: headers that claim more than
// the file holds, at the RIMCKPT and at the gob message level, are
// rejected at the cost of what arrived, not of the claim.
func TestCheckpointDecodeAllocatesWhatArrives(t *testing.T) {
	claim := frameCheckpoint(nil)
	binary.LittleEndian.PutUint64(claim[10:], checkpointMaxBytes)
	for name, data := range map[string][]byte{
		"header claims the 1 GiB cap": claim,
		"gob message claims 3 MB":     frameCheckpoint([]byte("\xfd000")),
	} {
		_, got, err := decodeAllocs(data)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if budget := checkpointAllocBudget(data); got > budget {
			t.Errorf("%s: %d bytes allocated %d, budget %d", name, len(data), got, budget)
		}
	}
}

// TestCheckpointDecodeRejectsOtherEncodings: the decoder accepts only
// what EncodeCheckpoint writes, and only stream state its spec can feed.
func TestCheckpointDecodeRejectsOtherEncodings(t *testing.T) {
	walked := checkpointFuzzSeeds(t)[0]
	cp, err := DecodeCheckpoint(bytes.NewReader(walked))
	if err != nil {
		t.Fatal(err)
	}
	encode := func(mut func(*Checkpoint)) []byte {
		c := *cp
		mut(&c)
		var b bytes.Buffer
		if err := EncodeCheckpoint(&b, &c); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for name, data := range map[string][]byte{
		"trailing gob message":       frameCheckpoint(append(walked[22:len(walked):len(walked)], 1, 0)),
		"spec wider than the stream": encode(func(c *Checkpoint) { c.Spec.NumTx = 2 }),
		"spec past the wire caps":    encode(func(c *Checkpoint) { c.Spec.NumSub, c.Stream = wireMaxDim+1, nil }),
	} {
		if _, err := DecodeCheckpoint(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
