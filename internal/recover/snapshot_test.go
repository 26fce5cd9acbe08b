package recover

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dsp/internal/sim"
	"dsp/internal/units"
)

func sampleState() *sim.EngineState {
	return &sim.EngineState{
		Now:           3 * units.Second,
		PeriodIndex:   4,
		EpochIndex:    7,
		JobsRemaining: 2,
		WorldSum:      0xdeadbeef,
		AuditOffset:   -1,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := sampleState()
	b, err := EncodeSnapshot(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte(snapshotMagic+" "+snapshotVersion+" ")) {
		t.Fatalf("header = %q", b[:bytes.IndexByte(b, '\n')])
	}
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Now != st.Now || got.PeriodIndex != st.PeriodIndex || got.WorldSum != st.WorldSum || got.AuditOffset != st.AuditOffset {
		t.Errorf("round trip mismatch: got %+v want %+v", got, st)
	}
}

func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	valid, err := EncodeSnapshot(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(valid, '\n')

	t.Run("bit flip in payload", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[nl+5] ^= 0x40
		var ce *ChecksumError
		if _, err := DecodeSnapshot(b); !errors.As(err, &ce) {
			t.Errorf("err = %v, want ChecksumError", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		var fe *FormatError
		if _, err := DecodeSnapshot(valid[:len(valid)-3]); !errors.As(err, &fe) {
			t.Errorf("err = %v, want FormatError", err)
		}
	})
	t.Run("version skew", func(t *testing.T) {
		for _, old := range []string{" v1 ", " v99 "} {
			b := bytes.Replace(valid, []byte(" "+snapshotVersion+" "), []byte(old), 1)
			var ve *VersionError
			if _, err := DecodeSnapshot(b); !errors.As(err, &ve) {
				t.Errorf("%q header: err = %v, want VersionError", old, err)
			}
		}
	})
	t.Run("wrong magic", func(t *testing.T) {
		b := append([]byte("not-a-snapshot"), valid...)
		var fe *FormatError
		if _, err := DecodeSnapshot(b); !errors.As(err, &fe) {
			t.Errorf("err = %v, want FormatError", err)
		}
	})
	t.Run("no header", func(t *testing.T) {
		var fe *FormatError
		if _, err := DecodeSnapshot([]byte("garbage with no newline")); !errors.As(err, &fe) {
			t.Errorf("err = %v, want FormatError", err)
		}
	})
	t.Run("unknown payload field", func(t *testing.T) {
		payload := []byte(`{"NoSuchField":1}`)
		sum := sha256.Sum256(payload)
		blob := fmt.Appendf(nil, "%s %s %s %d\n", snapshotMagic, snapshotVersion, hex.EncodeToString(sum[:]), len(payload))
		blob = append(blob, payload...)
		var fe *FormatError
		if _, err := DecodeSnapshot(blob); !errors.As(err, &fe) {
			t.Errorf("err = %v, want FormatError", err)
		}
	})
}

func TestWriteReadSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, snapName(1))
	st := sampleState()
	if err := WriteSnapshot(path, st); err != nil {
		t.Fatal(err)
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("dir has %d entries, want 1 (no leftover temp files)", len(entries))
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Now != st.Now {
		t.Errorf("Now = %v, want %v", got.Now, st.Now)
	}

	// Corrupt on disk: the typed error carries the path.
	b, _ := os.ReadFile(path)
	b[len(b)-2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadSnapshot(path)
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want ChecksumError", err)
	}
	if ce.Path != path {
		t.Errorf("error path = %q, want %q", ce.Path, path)
	}
}

func TestSeqNames(t *testing.T) {
	if walName(0) != "wal-00000000.log" || snapName(3) != "snapshot-00000003.snap" {
		t.Errorf("names: %q %q", walName(0), snapName(3))
	}
	cases := map[string]int{
		"snapshot-00000007.snap": 7,
		"snapshot-00000000.snap": 0,
		"wal-00000007.log":       -1,
		"snapshot-7.snap":        -1,
		"snapshot-0000000x.snap": -1,
		".snap-12345":            -1,
	}
	for name, want := range cases {
		if got := seqOfSnap(name); got != want {
			t.Errorf("seqOfSnap(%q) = %d, want %d", name, got, want)
		}
	}
}
