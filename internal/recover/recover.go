// Package recover gives the simulator crash-tolerant scheduler state: a
// versioned, checksummed snapshot of the complete engine state taken
// every K scheduling periods, plus an append-only write-ahead log (WAL)
// of the decision events emitted since the last snapshot.
//
// The engine is a deterministic event loop, so recovery is replay:
// resume rebuilds the world from the workload, overlays the newest valid
// snapshot, and rolls forward — re-making every scheduling decision the
// crashed process made after the snapshot. The WAL is therefore a
// verification log rather than a redo log: each decision the roll-forward
// re-emits is compared against the record the crashed process wrote, so
// recovery locates the exact crash point and any nondeterminism
// regression surfaces as a typed DivergenceError instead of silent
// state drift. When the log is exhausted the run has provably reached
// the crash point, the Replayed event fires, and the log switches back
// to append mode for the remainder of the run.
//
// File layout in the checkpoint directory (seq is a generation counter,
// bumped on every snapshot):
//
//	wal-00000000.log        decisions from run start (before any snapshot)
//	snapshot-00000001.snap  first periodic snapshot
//	wal-00000001.log        decisions since that snapshot
//	...
//
// The two newest generations are retained; older pairs are deleted as
// snapshots rotate. Snapshot writes are atomic (temp file + rename) and
// WAL appends are flushed and fsynced at every scheduling period, so a
// kill at any event boundary leaves at most a torn final WAL line —
// which reads tolerate by construction.
package recover

import (
	"errors"
	"fmt"
)

// Snapshot format version accepted by this package. v2 dropped the
// dynamic-growth state (and with it one engine event-tag kind and a
// world-fingerprint term), so a v1 snapshot cannot be restored.
const snapshotVersion = "v2"

// snapshotMagic starts every snapshot header line.
const snapshotMagic = "dsp-snapshot"

// ErrNoSnapshot is returned by Latest when the checkpoint directory
// holds no readable snapshot — the caller should start the run fresh.
var ErrNoSnapshot = errors.New("recover: no usable snapshot")

// FormatError reports snapshot or WAL bytes that do not parse as the
// expected format (bad header, bad length, malformed payload).
type FormatError struct {
	Path string
	Msg  string
}

func (e *FormatError) Error() string {
	if e.Path == "" {
		return "recover: format: " + e.Msg
	}
	return fmt.Sprintf("recover: %s: format: %s", e.Path, e.Msg)
}

// ChecksumError reports a snapshot whose payload does not hash to the
// checksum its header claims — the file is corrupt.
type ChecksumError struct {
	Path string
	Want string
	Got  string
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("recover: %s: checksum mismatch: header %s, payload %s", e.Path, e.Want, e.Got)
}

// VersionError reports a snapshot written by an incompatible format
// version.
type VersionError struct {
	Path string
	Got  string
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("recover: %s: unsupported snapshot version %q (want %s)", e.Path, e.Got, snapshotVersion)
}

// DivergenceError reports a resumed run whose deterministic roll-forward
// re-made a decision differently from what the crashed process logged.
// This never happens for a faithful resume (identical config, workload
// and binary); it is the WAL catching either a mismatched resume or a
// nondeterminism bug.
type DivergenceError struct {
	// Index is the zero-based WAL record where replay diverged.
	Index int
	// Want is the record the crashed process wrote; Got is what the
	// roll-forward produced.
	Want string
	Got  string
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("recover: replay diverged from write-ahead log at record %d: logged %q, replayed %q", e.Index, e.Want, e.Got)
}
