package recover

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dsp/internal/sim"
)

// EncodeSnapshot serializes an engine state as a self-validating blob:
// a header line "dsp-snapshot v2 <sha256 hex> <payload length>\n"
// followed by the JSON payload. The checksum covers the payload, so any
// torn or bit-flipped write is detected on read.
func EncodeSnapshot(st *sim.EngineState) ([]byte, error) {
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("recover: encode snapshot: %w", err)
	}
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s %s %d\n", snapshotMagic, snapshotVersion, hex.EncodeToString(sum[:]), len(payload))
	b.Write(payload)
	return b.Bytes(), nil
}

// DecodeSnapshot parses and validates a snapshot blob. Corrupt,
// truncated, or version-skewed bytes are rejected with a typed error
// (FormatError, ChecksumError, VersionError) — never a panic, never a
// silently-wrong state.
func DecodeSnapshot(b []byte) (*sim.EngineState, error) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return nil, &FormatError{Msg: "missing header line"}
	}
	fields := bytes.Fields(b[:nl])
	if len(fields) != 4 || string(fields[0]) != snapshotMagic {
		return nil, &FormatError{Msg: "malformed header"}
	}
	if v := string(fields[1]); v != snapshotVersion {
		return nil, &VersionError{Got: v}
	}
	wantSum := string(fields[2])
	var plen int
	if _, err := fmt.Sscanf(string(fields[3]), "%d", &plen); err != nil || plen < 0 {
		return nil, &FormatError{Msg: "bad payload length"}
	}
	payload := b[nl+1:]
	if len(payload) != plen {
		return nil, &FormatError{Msg: fmt.Sprintf("payload is %d bytes, header says %d", len(payload), plen)}
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != wantSum {
		return nil, &ChecksumError{Want: wantSum, Got: got}
	}
	var st sim.EngineState
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		return nil, &FormatError{Msg: "payload: " + err.Error()}
	}
	return &st, nil
}

// WriteSnapshot atomically persists a snapshot: the blob is written to a
// temp file in the same directory, fsynced, and renamed into place, so
// a crash mid-write can never leave a half-written file under the final
// name.
func WriteSnapshot(path string, st *sim.EngineState) error {
	b, err := EncodeSnapshot(st)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("recover: write snapshot: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		return cleanup(fmt.Errorf("recover: write snapshot: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("recover: sync snapshot: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("recover: close snapshot: %w", err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("recover: publish snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot loads and validates one snapshot file, annotating typed
// errors with the path.
func ReadSnapshot(path string) (*sim.EngineState, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("recover: read snapshot: %w", err)
	}
	st, err := DecodeSnapshot(b)
	if err != nil {
		switch e := err.(type) {
		case *FormatError:
			e.Path = path
		case *ChecksumError:
			e.Path = path
		case *VersionError:
			e.Path = path
		}
		return nil, err
	}
	return st, nil
}
