package session

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rim/internal/core"
)

// Checkpoint file format (little-endian):
//
//	offset  size  field
//	0       8     magic "RIMCKPT1"
//	8       2     version (currently 1)
//	10      8     payload length
//	18      4     CRC-32 (IEEE) of the payload
//	22      n     payload: gob-encoded Checkpoint
//
// The magic rejects foreign files, the version gates format evolution, and
// the checksum rejects torn or bit-rotted writes — a truncated or corrupt
// checkpoint must fail loudly at load, never restore a half-session.
//
// DecodeCheckpoint accepts only the exact bytes EncodeCheckpoint writes,
// gob's type definitions included, so any change to the fields of
// Checkpoint, Spec or core.StreamCheckpoint makes every checkpoint already
// on disk fail to restore. Such a change must bump checkpointVersion;
// TestCheckpointGolden pins each version's encoding.
const (
	checkpointMagic   = "RIMCKPT1"
	checkpointVersion = 1
	// checkpointMaxBytes caps the declared payload length so a corrupt
	// header cannot make the loader allocate unbounded memory.
	checkpointMaxBytes = 1 << 30
)

// Checkpoint is one session's durable state: identity, stream shape, and
// the captured streamer state. SavedUnixNs stamps the capture so restore
// can report staleness.
type Checkpoint struct {
	ID          string
	Spec        Spec
	SavedUnixNs int64
	Stream      *core.StreamCheckpoint
}

// EncodeCheckpoint writes cp to w in the versioned, checksummed format.
func EncodeCheckpoint(w io.Writer, cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("session: nil checkpoint")
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(cp); err != nil {
		return fmt.Errorf("session: encode checkpoint %q: %w", cp.ID, err)
	}
	var hdr [22]byte
	copy(hdr[:8], checkpointMagic)
	binary.LittleEndian.PutUint16(hdr[8:10], checkpointVersion)
	binary.LittleEndian.PutUint64(hdr[10:18], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[18:22], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// DecodeCheckpoint reads one checkpoint from r, rejecting bad magic,
// unknown versions, truncation and checksum mismatches.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var hdr [22]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("session: checkpoint header: %w", err)
	}
	if string(hdr[:8]) != checkpointMagic {
		return nil, fmt.Errorf("session: not a checkpoint file (bad magic %q)", hdr[:8])
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != checkpointVersion {
		return nil, fmt.Errorf("session: checkpoint version %d, want %d", v, checkpointVersion)
	}
	n := binary.LittleEndian.Uint64(hdr[10:18])
	if n > checkpointMaxBytes {
		return nil, fmt.Errorf("session: checkpoint payload claims %d bytes, cap is %d", n, checkpointMaxBytes)
	}
	want := binary.LittleEndian.Uint32(hdr[18:22])
	// Grow the payload as it arrives: the header's length is a claim, and
	// a short file must cost its size, not the claim.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("session: checkpoint payload: %w", err)
	}
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("session: checkpoint truncated: %d of %d payload bytes", len(payload), n)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("session: checkpoint checksum mismatch (got %08x, want %08x)", got, want)
	}
	if !gobMessagesFit(payload) {
		return nil, fmt.Errorf("session: checkpoint payload framing claims more bytes than it holds")
	}
	cp := &Checkpoint{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(cp); err != nil {
		return nil, fmt.Errorf("session: decode checkpoint: %w", err)
	}
	// Accept one encoding per checkpoint: gob also decodes streams
	// EncodeCheckpoint never writes (explicit zero fields, reordered or
	// padded type definitions, trailing messages).
	var canon bytes.Buffer
	if err := gob.NewEncoder(&canon).Encode(cp); err != nil || !bytes.Equal(canon.Bytes(), payload) {
		return nil, fmt.Errorf("session: checkpoint payload is not the encoding of the checkpoint it decodes to")
	}
	// The session's frames arrive in its spec's shape, within the wire's
	// dimension caps; stream state of any other shape could never take one.
	if err := checkDims(cp.Spec.NumAnts, cp.Spec.NumTx, cp.Spec.NumSub); err != nil {
		return nil, fmt.Errorf("session: checkpoint %q: %w", cp.ID, err)
	}
	if st := cp.Stream; st != nil && (st.Rate != cp.Spec.Rate || st.NumAnts != cp.Spec.NumAnts ||
		st.NumTx != cp.Spec.NumTx || st.NumSub != cp.Spec.NumSub) {
		return nil, fmt.Errorf("session: checkpoint %q stream shape disagrees with its spec", cp.ID)
	}
	return cp, nil
}

// gobMessagesFit reports whether every message of the gob stream p fits
// in the bytes after its length prefix (gob's unsigned-integer encoding:
// one byte below 0x80, else the negated byte count of a big-endian value
// that follows). gob allocates a message's claimed length, up to 10 MiB,
// before reading it, so a claim past the end of p is rejected first.
func gobMessagesFit(p []byte) bool {
	for len(p) > 0 {
		n, w := uint64(p[0]), 1
		if n >= 0x80 {
			w += -int(int8(p[0]))
			if w > 9 || w > len(p) {
				return false
			}
			n = 0
			for _, b := range p[1:w] {
				n = n<<8 | uint64(b)
			}
		}
		if p = p[w:]; n > uint64(len(p)) {
			return false
		}
		p = p[n:]
	}
	return true
}

// checkpointFile returns the on-disk name for a session's checkpoint, with
// the ID sanitized so a hostile session name cannot traverse directories.
func checkpointFile(dir, id string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, id)
	if safe == "" || safe == "." || safe == ".." {
		safe = "_"
	}
	return filepath.Join(dir, "ckpt-"+safe+".rimckpt")
}

// SaveCheckpoint atomically writes cp under dir (tmp file + rename, so a
// crash mid-write leaves the previous checkpoint intact) and returns the
// final path.
func SaveCheckpoint(dir string, cp *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := checkpointFile(dir, cp.ID)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := EncodeCheckpoint(tmp, cp); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, nil
}

// LoadCheckpoint reads and validates one checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}

// LoadCheckpointDir loads every checkpoint under dir, skipping (and
// reporting) files that fail validation — one rotten checkpoint must not
// block the rest of the fleet from restoring. A missing dir yields no
// checkpoints and no error.
func LoadCheckpointDir(dir string) ([]*Checkpoint, []error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, []error{err}
	}
	var out []*Checkpoint
	var errs []error
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".rimckpt") {
			continue
		}
		cp, err := LoadCheckpoint(filepath.Join(dir, e.Name()))
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.Name(), err))
			continue
		}
		out = append(out, cp)
	}
	return out, errs
}

// RemoveCheckpoint deletes a session's checkpoint file (after a graceful
// close, so a later restart does not resurrect it). Missing files are fine.
func RemoveCheckpoint(dir, id string) error {
	err := os.Remove(checkpointFile(dir, id))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
