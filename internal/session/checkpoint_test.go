package session

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rim/internal/core"
)

func sampleCheckpoint(id string) *Checkpoint {
	return &Checkpoint{
		ID:          id,
		Spec:        Spec{Rate: 100, NumAnts: 3, NumTx: 3, NumSub: 30},
		SavedUnixNs: 12345,
		Stream: &core.StreamCheckpoint{
			Rate: 100, NumAnts: 3, NumTx: 3, NumSub: 30,
		},
	}
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	cp := sampleCheckpoint("walker-7")
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != cp.ID || got.Spec != cp.Spec || got.SavedUnixNs != cp.SavedUnixNs {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, cp)
	}
	if got.Stream == nil || got.Stream.NumAnts != 3 {
		t.Fatalf("stream state lost: %+v", got.Stream)
	}
}

func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	cp := sampleCheckpoint("walker-7")
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flip := append([]byte(nil), good...)
	flip[len(flip)-1] ^= 0xFF // payload corruption → checksum mismatch
	if _, err := DecodeCheckpoint(bytes.NewReader(flip)); err == nil {
		t.Error("corrupted payload accepted")
	}

	if _, err := DecodeCheckpoint(bytes.NewReader(good[:len(good)-3])); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := DecodeCheckpoint(bytes.NewReader(good[:10])); err == nil {
		t.Error("truncated header accepted")
	}

	magic := append([]byte(nil), good...)
	magic[0] = 'X'
	if _, err := DecodeCheckpoint(bytes.NewReader(magic)); err == nil {
		t.Error("bad magic accepted")
	}

	ver := append([]byte(nil), good...)
	ver[8] = 0xEE // version field
	if _, err := DecodeCheckpoint(bytes.NewReader(ver)); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestSaveLoadCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"a", "b", "weird/../id"} {
		if _, err := SaveCheckpoint(dir, sampleCheckpoint(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Sanitized names stay inside dir.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".rimckpt") {
			t.Errorf("unexpected file %q", e.Name())
		}
	}

	// A corrupt file is skipped with a reported error, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-junk.rimckpt"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cps, errs := LoadCheckpointDir(dir)
	if len(cps) != 3 {
		t.Fatalf("loaded %d checkpoints, want 3", len(cps))
	}
	if len(errs) != 1 {
		t.Fatalf("corrupt file errors = %v, want exactly one", errs)
	}

	if err := RemoveCheckpoint(dir, "a"); err != nil {
		t.Fatal(err)
	}
	cps, _ = LoadCheckpointDir(dir)
	if len(cps) != 2 {
		t.Fatalf("after remove, %d checkpoints remain, want 2", len(cps))
	}

	// A missing directory is an empty result, not an error.
	cps, errs = LoadCheckpointDir(filepath.Join(dir, "nope"))
	if len(cps) != 0 || len(errs) != 0 {
		t.Fatalf("missing dir: cps=%v errs=%v", cps, errs)
	}
}

var updateCheckpointGolden = flag.Bool("update-checkpoint-golden", false,
	"write testdata/checkpoint-v<checkpointVersion>.golden when it does not exist yet")

// goldenCheckpoint sets every field of Checkpoint, Spec and
// core.StreamCheckpoint, so the golden encoding carries each one's value
// as well as its type.
func goldenCheckpoint() *Checkpoint {
	return &Checkpoint{
		ID:          "walker-golden",
		Spec:        Spec{Rate: 50, NumAnts: 2, NumTx: 1, NumSub: 2},
		SavedUnixNs: 1_700_000_000_000_000_000,
		Stream: &core.StreamCheckpoint{
			Rate: 50, NumAnts: 2, NumTx: 1, NumSub: 2,
			Buf: [][][][]complex128{
				{{{1 + 2i, 3 - 4i}, {5, 6i}}},
				{{{-1, 0.5i}, {2 - 1i, 7}}},
			},
			Missing:         [][]bool{{false, true}, {true, false}},
			LastGood:        [][][]complex128{{{5, 6i}}, {{2 - 1i, 7}}},
			Dropped:         3,
			Finalized:       4,
			Pending:         1,
			HopFactor:       2,
			HopSeq:          9,
			Samples:         5,
			MissTotal:       2,
			CorruptSlots:    1,
			Failures:        1,
			TotalFails:      2,
			LastErr:         "core: analysis failed",
			LastErrAnalysis: true,
			RecentMiss:      []bool{true, false, false, true},
			DeadWin:         2,
			RecentCnt:       []int{1, 1},
			RecentIdx:       1,
			RecentN:         2,
			EnergyEMA:       []float64{0.25, 1.5},
			Dead:            []bool{false, true},
		},
	}
}

// TestCheckpointGolden pins the bytes EncodeCheckpoint writes.
// DecodeCheckpoint accepts only a payload that re-encodes to itself, and
// the payload holds gob's type definitions, so adding, removing, renaming
// or retyping a field of Checkpoint, Spec or core.StreamCheckpoint makes
// every checkpoint already on disk fail to restore. Such a change must
// bump checkpointVersion, so those files are refused by version, and
// record the new version's golden with -update-checkpoint-golden, which
// never rewrites an existing one. The golden is decoded before anything
// is encoded, the order a booting daemon restores in.
func TestCheckpointGolden(t *testing.T) {
	path := filepath.Join("testdata", fmt.Sprintf("checkpoint-v%d.golden", checkpointVersion))
	golden, err := os.ReadFile(path)
	if os.IsNotExist(err) && *updateCheckpointGolden {
		var buf bytes.Buffer
		if err := EncodeCheckpoint(&buf, goldenCheckpoint()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	if err != nil {
		t.Fatalf("%v (a new checkpointVersion records its golden with -update-checkpoint-golden)", err)
	}
	got, err := DecodeCheckpoint(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("%s no longer restores: %v; a schema change must bump checkpointVersion", path, err)
	}
	if !reflect.DeepEqual(got, goldenCheckpoint()) {
		t.Fatalf("%s decodes to %+v, want %+v", path, got, goldenCheckpoint())
	}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, goldenCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("EncodeCheckpoint no longer writes %s (%d bytes now, %d pinned); a schema change must bump checkpointVersion",
			path, buf.Len(), len(golden))
	}
}
