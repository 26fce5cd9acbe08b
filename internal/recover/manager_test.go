package recover

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dsp/internal/cluster"
	"dsp/internal/preempt"
	"dsp/internal/sched"
	"dsp/internal/sim"
	"dsp/internal/trace"
	"dsp/internal/units"
)

var (
	_ sim.Observer       = (*Manager)(nil)
	_ sim.DurabilitySink = (*Manager)(nil)
)

// testWorkload regenerates the identical workload for every call — the
// engine mutates job DAGs in place, so resume needs a fresh copy.
func testWorkload(t *testing.T, jobs int, seed int64) *trace.Workload {
	t.Helper()
	spec := trace.DefaultSpec(jobs, seed)
	spec.TaskScale = 0.02
	spec.MeanTaskSizeMI /= 0.02
	spec.ArrivalRateMin = 3.5
	spec.ArrivalRateMax = 3.5
	w, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// testConfig builds a small deterministic cell — DSP scheduling and
// preemption on two nodes with 1 s periods so snapshots fire often —
// with fresh scheduler/preemptor instances (they hold per-run state).
func testConfig(m *Manager) sim.Config {
	cp := cluster.DefaultCheckpoint()
	cp.Interval = 500 * units.Millisecond
	cfg := sim.Config{
		Cluster:    cluster.RealCluster(2),
		Scheduler:  sched.NewDSP(),
		Preemptor:  preempt.NewDSP(),
		Checkpoint: cp,
		Period:     units.Second,
		Epoch:      units.Second,
	}
	if m != nil {
		cfg.Observer = m
		cfg.Durability = m
	}
	return cfg
}

// TestLatestReportsVersionSkew: a checkpoint dir written in an older
// snapshot format yields no usable snapshot, and the error names the
// version mismatch instead of leaving the caller to guess.
func TestLatestReportsVersionSkew(t *testing.T) {
	dir := t.TempDir()
	valid, err := EncodeSnapshot(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(valid, []byte(" "+snapshotVersion+" "), []byte(" v1 "), 1)
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Latest(dir)
	var ve *VersionError
	if !errors.Is(err, ErrNoSnapshot) || !errors.As(err, &ve) || ve.Got != "v1" {
		t.Fatalf("err = %v, want ErrNoSnapshot wrapping a v1 VersionError", err)
	}
}

func TestManagerRotationRetentionAndLatest(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(testConfig(m), testWorkload(t, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted == 0 {
		t.Fatal("fixture completed no jobs")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, wals := 0, 0
	for _, e := range entries {
		switch {
		case seqOfSnap(e.Name()) >= 0:
			snaps++
		case filepath.Ext(e.Name()) == ".log":
			wals++
		default:
			t.Errorf("unexpected file %q in checkpoint dir", e.Name())
		}
	}
	if snaps == 0 || snaps > retainGenerations {
		t.Errorf("dir holds %d snapshots, want 1..%d (rotation + retention)", snaps, retainGenerations)
	}
	if wals == 0 || wals > retainGenerations {
		t.Errorf("dir holds %d WALs, want 1..%d", wals, retainGenerations)
	}

	st, seq, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != m.seq {
		t.Errorf("Latest seq = %d, manager ended at %d", seq, m.seq)
	}
	if st.Now <= 0 || st.PeriodIndex <= 0 {
		t.Errorf("snapshot state looks empty: Now=%v PeriodIndex=%d", st.Now, st.PeriodIndex)
	}
	if st.PeriodIndex%2 != 0 {
		t.Errorf("snapshot at period %d, want a multiple of everyK=2", st.PeriodIndex)
	}
}

// TestKillResumeMatchesUninterrupted is the core recovery contract in
// miniature: kill mid-run at an arbitrary event count, resume from disk,
// and the final Result must be identical to the uninterrupted run's.
func TestKillResumeMatchesUninterrupted(t *testing.T) {
	// Uninterrupted baseline (durability attached, like any real run).
	baseDir := t.TempDir()
	mb, err := NewManager(baseDir, 2)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := sim.Prepare(testConfig(mb), testWorkload(t, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eb.Execute()
	if err != nil {
		t.Fatal(err)
	}
	mb.Close()
	total := eb.EventsFired()
	if total < 20 {
		t.Fatalf("fixture fired only %d events", total)
	}

	for _, frac := range []float64{0.25, 0.5, 0.85} {
		killN := int(float64(total) * frac)
		dir := t.TempDir()
		mk, err := NewManager(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(mk)
		cfg.MaxEvents = killN
		ek, err := sim.Prepare(cfg, testWorkload(t, 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ek.Execute(); err == nil {
			t.Fatalf("killN=%d: killed run unexpectedly completed", killN)
		}
		// The dead process never flushes anything: Kill drops mk's
		// buffers and queued background writes exactly as a crash would.
		mk.Kill()

		var got *sim.Result
		mr, st, err := Resume(dir, 2)
		switch {
		case errors.Is(err, ErrNoSnapshot):
			// The kill outran the write-behind persister: nothing durable
			// on disk yet, so recovery restarts from scratch — and must
			// still reproduce the uninterrupted result.
			mf, err := NewManager(t.TempDir(), 2)
			if err != nil {
				t.Fatal(err)
			}
			got, err = sim.Run(testConfig(mf), testWorkload(t, 2, 1))
			if err != nil {
				t.Fatalf("killN=%d: fresh restart: %v", killN, err)
			}
			mf.Close()
		case err != nil:
			t.Fatalf("killN=%d: resume: %v", killN, err)
		default:
			er, err := sim.PrepareResume(testConfig(mr), testWorkload(t, 2, 1), st)
			if err != nil {
				t.Fatalf("killN=%d: prepare resume: %v", killN, err)
			}
			got, err = er.Execute()
			if err != nil {
				t.Fatalf("killN=%d: resumed execute: %v", killN, err)
			}
			mr.Close()
		}

		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("killN=%d: resumed result differs from uninterrupted run\ngot:  %s\nwant: %s", killN, gotJSON, wantJSON)
		}
	}
}

func TestResumeEmptyDirIsErrNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Resume(dir, 2); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("empty dir: err = %v, want ErrNoSnapshot", err)
	}
}

// A kill before the first snapshot leaves only wal-00000000.log; resume
// must report ErrNoSnapshot so the caller restarts fresh.
func TestKillBeforeFirstSnapshot(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(m)
	cfg.MaxEvents = 3
	e, err := sim.Prepare(cfg, testWorkload(t, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(); err == nil {
		t.Fatal("run of 3 events unexpectedly completed")
	}
	m.Kill()
	if _, _, err := Resume(dir, 2); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("err = %v, want ErrNoSnapshot", err)
	}
}

// TestLatestFallsBackOnCorruptNewest corrupts the newest snapshot and
// expects Latest to recover from the previous generation.
func TestLatestFallsBackOnCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(testConfig(m), testWorkload(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	_, newest, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if newest < 2 {
		t.Skipf("run produced only %d generations; retention test needs 2", newest)
	}
	path := filepath.Join(dir, snapName(newest))
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, seq, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != newest-1 {
		t.Errorf("Latest fell back to seq %d, want %d", seq, newest-1)
	}
}

// TestVerifyModeDetectsDivergence drives a verifying manager directly:
// a re-emitted decision that differs from the logged record must latch
// a DivergenceError, and matching records must advance verification and
// switch the manager back to append mode when the log is exhausted.
func TestVerifyModeDetectsDivergence(t *testing.T) {
	logged := []string{
		"start t=1000 task=J0.T1 node=0",
		"complete t=5000 task=J0.T1 node=0",
	}

	t.Run("mismatch latches", func(t *testing.T) {
		m := &Manager{dir: t.TempDir(), everyK: 2, verifying: true, verify: logged}
		m.record(units.Second, logged[0])
		m.record(5*units.Second, "complete t=5000 task=J0.T1 node=1") // wrong node
		var de *DivergenceError
		if !errors.As(m.Err(), &de) {
			t.Fatalf("err = %v, want DivergenceError", m.Err())
		}
		if de.Index != 1 || de.Want != logged[1] {
			t.Errorf("divergence = %+v, want index 1 against %q", de, logged[1])
		}
	})

	t.Run("match exhausts and reopens for append", func(t *testing.T) {
		dir := t.TempDir()
		// Simulate the on-disk log the records came from, plus a torn tail
		// that finishReplay must truncate away.
		var b []byte
		for _, r := range logged {
			b = appendWALRecord(b, r)
		}
		valid := int64(len(b))
		b = append(b, "deadbeef torn"...)
		if err := os.WriteFile(filepath.Join(dir, walName(0)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		m := &Manager{dir: dir, everyK: 2, verifying: true, verify: logged, validLen: valid}
		m.record(units.Second, logged[0])
		m.record(5*units.Second, logged[1])
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		if m.verifying {
			t.Error("manager still verifying after log exhausted")
		}
		m.record(6*units.Second, "start t=6000 task=J0.T2 node=1")
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		records, _, err := readWAL(filepath.Join(dir, walName(0)))
		if err != nil {
			t.Fatal(err)
		}
		want := append(append([]string(nil), logged...), "start t=6000 task=J0.T2 node=1")
		if len(records) != len(want) {
			t.Fatalf("wal has %d records, want %d: %q", len(records), len(want), records)
		}
		for i := range want {
			if records[i] != want[i] {
				t.Errorf("record %d = %q, want %q", i, records[i], want[i])
			}
		}
	})

	t.Run("records past a snapshot boundary are corruption", func(t *testing.T) {
		m := &Manager{dir: t.TempDir(), everyK: 2, verifying: true, verify: logged}
		m.record(units.Second, logged[0])
		if err := m.OnPeriod(nil, 2, 2*units.Second); err == nil {
			t.Fatal("snapshot-due period with unverified records accepted")
		}
		var fe *FormatError
		if !errors.As(m.Err(), &fe) {
			t.Errorf("err = %v, want FormatError", m.Err())
		}
	})
}

// TestResumeRejectsMismatchedWorkload: a snapshot from one workload must
// not overlay onto a different one.
func TestResumeRejectsMismatchedWorkload(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(m)
	cfg.MaxEvents = 2000
	e, err := sim.Prepare(cfg, testWorkload(t, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	e.Execute() //nolint:errcheck // may or may not finish under the cap
	m.Kill()
	mr, st, err := Resume(dir, 2)
	if err != nil {
		t.Skipf("no snapshot at this cap: %v", err)
	}
	if _, err := sim.PrepareResume(testConfig(mr), testWorkload(t, 2, 99), st); err == nil {
		t.Error("resume with a different workload seed succeeded; want fingerprint rejection")
	}
}
