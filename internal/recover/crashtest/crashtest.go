// Package crashtest is the kill-anywhere harness for the crash-tolerant
// scheduler state in internal/recover: it runs a stress cell (chaos node
// faults + overload + the full mitigation stack, per
// experiments.RecoveryCellConfig), kills the run at an arbitrary event
// boundary by capping the event budget — abandoning every buffer
// unflushed, exactly as a real crash would — then recovers from the
// on-disk snapshot/WAL pair and finishes the run. The contract it
// checks: the recovered run's Result, decision-audit JSONL and per-job
// blame decomposition are byte-identical to an uninterrupted run's, for
// a kill at any event index.
package crashtest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dsp/internal/experiments"
	"dsp/internal/obs"
	"dsp/internal/recover"
	"dsp/internal/sim"
)

// Options selects the cell the harness runs. The zero value is not
// usable: Dir is required, and the rest default via normalize.
type Options struct {
	// Dir is the working directory: checkpoints land in Dir/ckpt and the
	// decision audit in Dir/audit.jsonl.
	Dir string
	// Platform, Jobs and Seed pick the experiments.RecoveryCellConfig
	// cell (defaults: Real, 50 jobs, seed 1).
	Platform experiments.Platform
	Jobs     int
	Seed     int64
	// EveryK is the snapshot cadence in scheduling periods (default 2).
	EveryK int
	// TruncateWALTail, when positive, chops that many bytes off the end
	// of the surviving WAL between the kill and the recovery — an
	// explicit torn-final-record case on top of whatever the kill itself
	// tore. Test hook.
	TruncateWALTail int
}

func (o Options) normalized() Options {
	if o.Jobs == 0 {
		o.Jobs = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.EveryK == 0 {
		o.EveryK = 2
	}
	return o
}

// RunArtifacts captures everything the byte-identity contract compares,
// plus how the run got there.
type RunArtifacts struct {
	// Result is the run's sim.Result as canonical JSON.
	Result []byte
	// Audit is the full decision-audit JSONL file.
	Audit []byte
	// Events is the number of events the (final) execution fired; for a
	// recovered run that counts the resumed execution only.
	Events int
	// Resumed reports whether recovery went through a snapshot (false:
	// the kill predated the first snapshot and the run restarted fresh).
	Resumed bool
	// Replayed is the number of WAL records the roll-forward verified.
	Replayed int
	// Snapshots is how many snapshot events the run observed.
	Snapshots int64
}

// Blame extracts the per-job blame decomposition ("job-blame" lines)
// from the audit artifact. Byte-identity of the full audit implies
// byte-identity here; the harness asserts it separately because the
// blame lines are the artifact downstream tools (dspexplain) consume.
func (a *RunArtifacts) Blame() []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(a.Audit, []byte("\n")) {
		if bytes.Contains(line, []byte(`"ev":"job-blame"`)) {
			out = append(out, line...)
		}
	}
	return out
}

// RunUninterrupted executes the cell start to finish with durability
// attached (snapshots and WAL exactly as a killed run would write them,
// so the audit stream — which carries snapshot markers — is comparable)
// and returns the reference artifacts.
func RunUninterrupted(o Options) (*RunArtifacts, error) {
	o = o.normalized()
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	auditPath := filepath.Join(o.Dir, "audit.jsonl")
	f, err := os.Create(auditPath)
	if err != nil {
		return nil, err
	}
	counters := obs.NewCounters()
	aw := obs.NewAuditWriter(f)
	m, err := recover.NewManager(filepath.Join(o.Dir, "ckpt"), o.EveryK)
	if err != nil {
		f.Close()
		return nil, err
	}
	m.AttachAudit(aw)

	cfg, w, err := experiments.RecoveryCellConfig(o.Platform, o.Jobs, o.Seed)
	if err != nil {
		f.Close()
		return nil, err
	}
	cfg.Observer = sim.Observers{counters, aw, m}
	cfg.Durability = m
	e, err := sim.Prepare(cfg, w)
	if err != nil {
		f.Close()
		return nil, err
	}
	res, err := e.Execute()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := m.Close(); err != nil {
		f.Close()
		return nil, err
	}
	if err := aw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return artifacts(o, res, e.EventsFired(), false, 0, counters)
}

// RunKilledAndRecover kills the cell after killN events — dropping every
// unflushed buffer, as a crash would — then recovers from disk and runs
// to completion. A kill that predates the first snapshot recovers by
// restarting fresh (Resumed=false).
func RunKilledAndRecover(o Options, killN int) (*RunArtifacts, error) {
	o = o.normalized()
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	auditPath := filepath.Join(o.Dir, "audit.jsonl")
	ckptDir := filepath.Join(o.Dir, "ckpt")

	// Phase 1: the doomed run. Nothing it holds is flushed or closed on
	// the way down; only bytes that reached the OS before the kill
	// survive, which is exactly the torn on-disk state recovery must
	// tolerate. (The abandoned audit fd is closed to avoid accumulating
	// descriptors across a long sweep — without flushing its writer.)
	f, err := os.Create(auditPath)
	if err != nil {
		return nil, err
	}
	aw := obs.NewAuditWriter(f)
	m, err := recover.NewManager(ckptDir, o.EveryK)
	if err != nil {
		f.Close()
		return nil, err
	}
	m.AttachAudit(aw)
	cfg, w, err := experiments.RecoveryCellConfig(o.Platform, o.Jobs, o.Seed)
	if err != nil {
		f.Close()
		return nil, err
	}
	cfg.Observer = sim.Observers{aw, m}
	cfg.Durability = m
	cfg.MaxEvents = killN
	e, err := sim.Prepare(cfg, w)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := e.Execute(); err == nil {
		f.Close()
		return nil, fmt.Errorf("crashtest: killN=%d exceeds the cell's event count; run completed", killN)
	}
	// Stop the background persister without flushing: queued writes are
	// discarded, matching what a process kill leaves on disk.
	m.Kill()
	f.Close()

	if o.TruncateWALTail > 0 {
		if err := truncateNewestWAL(ckptDir, o.TruncateWALTail); err != nil {
			return nil, err
		}
	}

	// Phase 2: recover.
	mr, st, err := recover.Resume(ckptDir, o.EveryK)
	if errors.Is(err, recover.ErrNoSnapshot) {
		return restartFresh(o)
	}
	if err != nil {
		return nil, err
	}

	counters := obs.NewCounters()
	offset := st.AuditOffset
	if offset < 0 {
		offset = 0
	}
	af, prefix, err := reopenAudit(auditPath, offset)
	if err != nil {
		return nil, err
	}
	aw2 := obs.NewAuditWriter(af)
	aw2.SetBaseOffset(offset)
	mr.AttachAudit(aw2)
	chain := sim.Observers{counters, aw2, mr}
	mr.Peer = sim.Observers{counters, aw2}

	cfg2, w2, err := experiments.RecoveryCellConfig(o.Platform, o.Jobs, o.Seed)
	if err != nil {
		af.Close()
		return nil, err
	}
	cfg2.Observer = chain
	cfg2.Durability = mr
	er, err := sim.PrepareResume(cfg2, w2, st)
	if err != nil {
		af.Close()
		return nil, err
	}
	// Rebuild the in-memory attribution state for jobs still in flight
	// from the retained audit prefix, then announce the recovery on the
	// observer chain (process-local: not audited, so artifacts stay
	// byte-identical).
	if err := aw2.Rehydrate(bytes.NewReader(prefix), er.FindTask); err != nil {
		af.Close()
		return nil, err
	}
	chain.Observe(sim.Event{Kind: sim.RecoveryStarted, At: st.Now, N: st.PeriodIndex})
	res, err := er.Execute()
	if err != nil {
		af.Close()
		return nil, err
	}
	if err := mr.Close(); err != nil {
		af.Close()
		return nil, err
	}
	if err := aw2.Flush(); err != nil {
		af.Close()
		return nil, err
	}
	if err := af.Close(); err != nil {
		return nil, err
	}
	return artifacts(o, res, er.EventsFired(), true, mr.ReplayTarget(), counters)
}

// restartFresh handles the no-usable-snapshot case: everything runs
// again from scratch, overwriting the partial artifacts.
func restartFresh(o Options) (*RunArtifacts, error) {
	a, err := RunUninterrupted(o)
	if err != nil {
		return nil, err
	}
	a.Resumed = false
	return a, nil
}

// truncateNewestWAL chops n bytes off the end of the WAL the recovery
// will read (the one paired with the newest valid snapshot, or the
// initial log when no snapshot exists), simulating a torn final record.
func truncateNewestWAL(ckptDir string, n int) error {
	seq := 0
	if _, s, err := recover.Latest(ckptDir); err == nil {
		seq = s
	} else if !errors.Is(err, recover.ErrNoSnapshot) {
		return err
	}
	path := filepath.Join(ckptDir, fmt.Sprintf("wal-%08d.log", seq))
	fi, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // crash before the rotated WAL existed: nothing to tear
		}
		return err
	}
	size := fi.Size() - int64(n)
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

// reopenAudit opens the torn audit file, keeps the prefix the snapshot
// vouches for, truncates the rest (written after the snapshot; the
// roll-forward re-emits it) and positions the file for appending.
func reopenAudit(path string, offset int64) (*os.File, []byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	prefix := make([]byte, offset)
	if _, err := io.ReadFull(f, prefix); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("crashtest: audit shorter than snapshot offset %d: %w", offset, err)
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, prefix, nil
}

func artifacts(o Options, res *sim.Result, events int, resumed bool, replayed int, c *obs.Counters) (*RunArtifacts, error) {
	resJSON, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	audit, err := os.ReadFile(filepath.Join(o.Dir, "audit.jsonl"))
	if err != nil {
		return nil, err
	}
	return &RunArtifacts{
		Result:    resJSON,
		Audit:     audit,
		Events:    events,
		Resumed:   resumed,
		Replayed:  replayed,
		Snapshots: c.Snapshots.Load(),
	}, nil
}
