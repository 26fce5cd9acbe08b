package recover

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"dsp/internal/sim"
	"dsp/internal/units"
)

// retainGenerations is how many snapshot/WAL pairs are kept on disk;
// older generations are deleted as snapshots rotate. Two generations
// means a crash during a snapshot write still leaves a complete older
// pair to resume from.
const retainGenerations = 2

// AuditLog is the slice of the audit stream the Manager needs: flushing
// buffered lines to the OS at snapshot time and reading the stream
// offset that goes into the snapshot (see sim.EngineState.AuditOffset).
type AuditLog interface {
	Flush() error
	Offset() int64
}

// Manager is the durability sink: attach one to sim.Config.Durability
// (and to the observer chain) and it persists a checksummed engine
// snapshot every K scheduling periods plus a write-ahead log of decision
// events between snapshots. After a crash, Resume loads the newest valid
// pair and the manager verifies the deterministic roll-forward against
// the log (see the package comment for why verification, not redo).
//
// All file I/O — snapshot encoding, WAL appends, fsyncs, rotation,
// retention pruning — happens on a background persister goroutine
// (group-commit style), so the scheduling loop only pays for capturing
// the engine state and handing off a byte buffer. The durable horizon
// trails the engine by at most the persister's queue; a crash loses only
// the un-persisted suffix, which recovery re-derives deterministically
// from the previous generation.
type Manager struct {
	dir    string
	everyK int

	// Peer, when non-nil, receives the Replayed event the moment a
	// resumed run's roll-forward has verified the last surviving WAL
	// record. Wire the run's observer chain here (the manager cannot be
	// its own peer: it sits inside that chain).
	Peer sim.Observer

	audit AuditLog

	// seq is the current generation: records go to wal-<seq>.log and the
	// next snapshot becomes snapshot-<seq+1>.snap.
	seq int

	verifying bool
	verify    []string
	verifyPos int
	validLen  int64

	// buf accumulates encoded WAL lines between period boundaries; the
	// period hook hands it to the persister wholesale.
	buf []byte

	p *persister

	err error
}

// NewManager starts a fresh run's durability sink on dir, snapshotting
// every everyK scheduling periods (everyK < 1 is treated as 1). The
// directory is created if needed; pre-existing checkpoint files from
// older runs are removed so Latest cannot resurrect a stale generation.
func NewManager(dir string, everyK int) (*Manager, error) {
	if everyK < 1 {
		everyK = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recover: checkpoint dir: %w", err)
	}
	if err := removeCheckpointFiles(dir); err != nil {
		return nil, err
	}
	p, err := startPersister(dir, walName(0), os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return nil, err
	}
	return &Manager{dir: dir, everyK: everyK, p: p}, nil
}

// Resume loads the newest valid snapshot/WAL pair from dir and returns
// the engine state to overlay plus a manager in verification mode. The
// caller rebuilds the engine with sim.PrepareResume, emits
// RecoveryStarted on its observer chain, and runs Execute; the manager
// verifies every re-emitted decision against the log and switches back
// to appending once the log is exhausted. ErrNoSnapshot means nothing
// usable survives and the run should start fresh.
func Resume(dir string, everyK int) (*Manager, *sim.EngineState, error) {
	if everyK < 1 {
		everyK = 1
	}
	st, seq, err := Latest(dir)
	if err != nil {
		return nil, nil, err
	}
	records, validLen, err := readWAL(filepath.Join(dir, walName(seq)))
	if err != nil {
		return nil, nil, err
	}
	m := &Manager{
		dir:       dir,
		everyK:    everyK,
		seq:       seq,
		verifying: true,
		verify:    records,
		validLen:  validLen,
	}
	return m, st, nil
}

// Latest returns the engine state of the newest readable snapshot in
// dir and its generation number. Unreadable or corrupt snapshots are
// skipped (an older valid one still recovers the run); ErrNoSnapshot
// means none parsed. When a skipped snapshot was written in another
// format version, the error also wraps that *VersionError, so a
// checkpoint dir left by an incompatible build says so.
func Latest(dir string) (*sim.EngineState, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("recover: checkpoint dir: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		if s := seqOfSnap(e.Name()); s >= 0 {
			seqs = append(seqs, s)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	var skew *VersionError
	for _, s := range seqs {
		st, err := ReadSnapshot(filepath.Join(dir, snapName(s)))
		if err != nil {
			if skew == nil {
				errors.As(err, &skew)
			}
			continue // torn or corrupt: fall back to the previous generation
		}
		return st, s, nil
	}
	if skew != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrNoSnapshot, skew)
	}
	return nil, 0, ErrNoSnapshot
}

// AttachAudit connects the audit stream whose offset snapshots should
// record (optional; without it snapshots carry AuditOffset -1).
func (m *Manager) AttachAudit(a AuditLog) { m.audit = a }

// Err returns the first persistence or verification error the manager
// latched (also surfaced through the engine as an Execute error).
func (m *Manager) Err() error { return m.err }

// ReplayTarget returns how many WAL records a resumed manager has to
// verify before the run reaches the crash point (0 on fresh runs).
func (m *Manager) ReplayTarget() int { return len(m.verify) }

// SnapshotDue implements sim.DurabilitySink.
func (m *Manager) SnapshotDue(period int) bool {
	return period%m.everyK == 0
}

// OnPeriod implements sim.DurabilitySink: hand the period's buffered
// records to the persister (which appends and fsyncs them) and capture a
// snapshot every K-th period. During a resumed run's roll-forward it
// only tracks verification progress; persistence restarts once the run
// is past the crash point.
func (m *Manager) OnPeriod(e *sim.Engine, period int, now units.Time) error {
	if m.err != nil {
		return m.err
	}
	if m.verifying {
		if m.verifyPos < len(m.verify) {
			if m.SnapshotDue(period) {
				// The log can never span a completed snapshot boundary:
				// rotation happens at the same tick that writes the
				// snapshot. Records beyond one are corruption.
				m.err = &FormatError{Path: filepath.Join(m.dir, walName(m.seq)), Msg: "write-ahead log extends past a snapshot boundary"}
				return m.err
			}
			return nil
		}
		if err := m.finishReplay(now); err != nil {
			return err
		}
	}
	if err := m.p.errState(); err != nil {
		m.err = err
		return m.err
	}
	if !m.SnapshotDue(period) {
		if len(m.buf) > 0 {
			m.p.send(persistReq{chunk: m.takeBuf(), fsync: true})
		}
		return nil
	}
	return m.snapshot(e)
}

// OnInterrupt implements sim.DurabilitySink: a graceful shutdown takes
// one final snapshot at the interrupt boundary and waits for the
// persister to make it durable, so a later resume loses no work at all.
func (m *Manager) OnInterrupt(e *sim.Engine, now units.Time) error {
	if m.err != nil {
		return m.err
	}
	if m.verifying {
		// Interrupted before the roll-forward reached the crash point:
		// the on-disk generation already covers this prefix; nothing to
		// write.
		return nil
	}
	if err := m.snapshot(e); err != nil {
		return err
	}
	if err := m.p.barrier(); err != nil {
		m.err = err
	}
	return m.err
}

// snapshot flushes the audit stream, captures the engine state, and
// hands the persister the buffered WAL tail plus the snapshot: it
// appends the tail to the old generation's log, writes the snapshot
// atomically, rotates the WAL and prunes old generations — all off the
// scheduling hot path.
func (m *Manager) snapshot(e *sim.Engine) error {
	offset := int64(-1)
	if m.audit != nil {
		if err := m.audit.Flush(); err != nil {
			m.err = fmt.Errorf("recover: flush audit: %w", err)
			return m.err
		}
		offset = m.audit.Offset()
	}
	st, err := e.CaptureState()
	if err != nil {
		m.err = err
		return m.err
	}
	st.AuditOffset = offset
	m.seq++
	m.p.send(persistReq{chunk: m.takeBuf(), snap: st, seq: m.seq})
	return nil
}

// finishReplay switches a resumed manager from verification back to
// appending: the WAL is truncated to its valid prefix (dropping any
// torn tail), the persister starts on it in append mode, and the
// Replayed event is delivered to the peer observer.
func (m *Manager) finishReplay(now units.Time) error {
	m.verifying = false
	path := filepath.Join(m.dir, walName(m.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		m.err = fmt.Errorf("recover: reopen wal: %w", err)
		return m.err
	}
	if err := f.Truncate(m.validLen); err != nil {
		f.Close()
		m.err = fmt.Errorf("recover: truncate wal: %w", err)
		return m.err
	}
	if err := f.Close(); err != nil {
		m.err = fmt.Errorf("recover: truncate wal: %w", err)
		return m.err
	}
	p, err := startPersister(m.dir, walName(m.seq), os.O_WRONLY|os.O_APPEND)
	if err != nil {
		m.err = err
		return m.err
	}
	m.p = p
	if m.Peer != nil {
		m.Peer.Observe(sim.Event{Kind: sim.Replayed, At: now, N: len(m.verify)})
	}
	return nil
}

// record routes one decision event: verified against the log during
// roll-forward, buffered for the persister otherwise.
func (m *Manager) record(now units.Time, payload string) {
	if m.err != nil {
		return
	}
	if m.verifying {
		if m.verifyPos < len(m.verify) {
			if m.verify[m.verifyPos] != payload {
				m.err = &DivergenceError{Index: m.verifyPos, Want: m.verify[m.verifyPos], Got: payload}
				return
			}
			m.verifyPos++
			if m.verifyPos == len(m.verify) {
				m.err = m.finishReplay(now)
			}
			return
		}
		// Empty log (crash immediately after a snapshot): nothing to
		// verify, switch straight to appending this record.
		if err := m.finishReplay(now); err != nil {
			return
		}
	}
	m.buf = appendWALRecord(m.buf, payload)
}

func (m *Manager) takeBuf() []byte {
	b := m.buf
	m.buf = nil
	return b
}

// Close flushes the remaining buffered records, drains the persister and
// closes the WAL (call when the run finishes).
func (m *Manager) Close() error {
	if m.p == nil {
		return m.err
	}
	if len(m.buf) > 0 {
		m.p.send(persistReq{chunk: m.takeBuf()})
	}
	if err := m.p.shutdown(false); err != nil && m.err == nil {
		m.err = err
	}
	m.p = nil
	return m.err
}

// Kill abandons the manager the way a process kill would: buffered
// records are dropped, queued persister work is discarded, and the WAL
// is closed without a final flush — only bytes already handed to the OS
// survive. Crash harnesses use it to stop the background goroutine at a
// deterministic request boundary before reading the directory back;
// real crashes just die.
func (m *Manager) Kill() {
	m.buf = nil
	if m.p != nil {
		m.p.shutdown(true) //nolint:errcheck // the "process" is dead; nobody is listening
		m.p = nil
	}
}

// persistReq is one unit of background I/O: append chunk to the current
// WAL (fsyncing when asked), then — when snap is set — write the
// snapshot for generation seq, rotate the WAL and prune old generations.
type persistReq struct {
	chunk []byte
	fsync bool
	snap  *sim.EngineState
	seq   int
	// sync, when non-nil, is closed once this request (and everything
	// queued before it) has been handled — a drain barrier.
	sync chan struct{}
}

// persister owns the checkpoint directory's file handles and performs
// all durable writes in order on its own goroutine. The first error
// latches; later requests are ignored (the manager surfaces the error
// at the next period boundary).
type persister struct {
	dir  string
	ch   chan persistReq
	done chan struct{}

	mu     sync.Mutex
	err    error
	killed bool

	walF *os.File // owned by the run goroutine after start
}

func startPersister(dir, wal string, flags int) (*persister, error) {
	f, err := os.OpenFile(filepath.Join(dir, wal), flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("recover: open wal: %w", err)
	}
	// The queue is deep enough that a single slow fsync (journal-commit
	// latency spikes are routine) does not stall the scheduling loop;
	// sustained overproduction still backpressures once it fills.
	p := &persister{dir: dir, ch: make(chan persistReq, 512), done: make(chan struct{}), walF: f}
	go p.run()
	return p, nil
}

func (p *persister) run() {
	defer close(p.done)
	for req := range p.ch {
		if !p.dead() && p.errState() == nil {
			if err := p.handle(req); err != nil {
				p.fail(err)
			}
		}
		if req.sync != nil {
			close(req.sync)
		}
	}
	if p.walF == nil {
		return
	}
	if !p.dead() && p.errState() == nil {
		if err := p.walF.Sync(); err != nil {
			p.fail(fmt.Errorf("recover: sync wal: %w", err))
		}
	}
	if err := p.walF.Close(); err != nil {
		p.fail(fmt.Errorf("recover: close wal: %w", err))
	}
}

func (p *persister) handle(req persistReq) error {
	if len(req.chunk) > 0 {
		if _, err := p.walF.Write(req.chunk); err != nil {
			return fmt.Errorf("recover: append wal: %w", err)
		}
	}
	if req.fsync && req.snap == nil {
		if err := p.walF.Sync(); err != nil {
			return fmt.Errorf("recover: sync wal: %w", err)
		}
	}
	if req.snap == nil {
		return nil
	}
	if err := WriteSnapshot(filepath.Join(p.dir, snapName(req.seq)), req.snap); err != nil {
		return err
	}
	// Rotate: seal the old generation's log, open the new one.
	if err := p.walF.Sync(); err != nil {
		return fmt.Errorf("recover: sync wal: %w", err)
	}
	if err := p.walF.Close(); err != nil {
		p.walF = nil
		return fmt.Errorf("recover: close wal: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(p.dir, walName(req.seq)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		p.walF = nil
		return fmt.Errorf("recover: open wal: %w", err)
	}
	p.walF = f
	prune(p.dir, req.seq)
	return nil
}

// barrier blocks until everything queued so far is durable.
func (p *persister) barrier() error {
	req := persistReq{fsync: true, sync: make(chan struct{})}
	p.send(req)
	<-req.sync
	return p.errState()
}

// shutdown stops the goroutine. With kill set, queued work is discarded
// and the WAL closed without flushing; otherwise everything drains and
// the WAL is fsynced shut.
func (p *persister) shutdown(kill bool) error {
	if kill {
		p.mu.Lock()
		p.killed = true
		p.mu.Unlock()
	}
	close(p.ch)
	<-p.done
	return p.errState()
}

func (p *persister) send(req persistReq) { p.ch <- req }

func (p *persister) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *persister) errState() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *persister) dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

// prune deletes generations older than the newest retainGenerations
// snapshots (plus their WALs). Best-effort: an undeletable file only
// wastes disk.
func prune(dir string, seq int) {
	for s := seq - retainGenerations; s >= 0; s-- {
		snap := filepath.Join(dir, snapName(s))
		wal := filepath.Join(dir, walName(s))
		_, serr := os.Stat(snap)
		_, werr := os.Stat(wal)
		if os.IsNotExist(serr) && os.IsNotExist(werr) {
			return // everything older is already gone
		}
		os.Remove(snap)
		os.Remove(wal)
	}
}

// removeCheckpointFiles clears snapshot/WAL files from dir so a fresh
// run starts with an empty generation history.
func removeCheckpointFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("recover: checkpoint dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if seqOfSnap(name) >= 0 || (len(name) > 8 && name[:4] == "wal-" && filepath.Ext(name) == ".log") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("recover: clear checkpoint dir: %w", err)
			}
		}
	}
	return nil
}

// Observe implements sim.Observer: the WAL record taxonomy. One record
// per scheduling decision or externally visible task/job outcome —
// dispatches, preemptions, completions, retries, terminal failures,
// evictions, sheds and cancellations. Payloads are deterministic
// single-line strings; two runs of the same world produce identical
// sequences, which is exactly what verification checks.
func (m *Manager) Observe(ev sim.Event) {
	now := int64(ev.At)
	switch ev.Kind {
	case sim.TaskStarted:
		m.record(ev.At, fmt.Sprintf("start t=%d task=%s node=%d", now, ev.Task.Key(), int(ev.Node)))
	case sim.TaskPreempted:
		skey := "-"
		if ev.Starter != nil {
			skey = ev.Starter.Key().String()
		}
		m.record(ev.At, fmt.Sprintf("preempt t=%d victim=%s starter=%s node=%d", now, ev.Task.Key(), skey, int(ev.Node)))
	case sim.TaskCompleted:
		m.record(ev.At, fmt.Sprintf("complete t=%d task=%s node=%d", now, ev.Task.Key(), int(ev.Node)))
	case sim.JobCompleted:
		m.record(ev.At, fmt.Sprintf("job-complete t=%d job=%d", now, int(ev.Job.Dag.ID)))
	case sim.TaskRetried:
		m.record(ev.At, fmt.Sprintf("retry t=%d task=%s node=%d attempt=%d reason=%s", now, ev.Task.Key(), int(ev.Node), ev.N, ev.Retry))
	case sim.TaskFailedTerminally:
		m.record(ev.At, fmt.Sprintf("terminal t=%d task=%s node=%d", now, ev.Task.Key(), int(ev.Node)))
	case sim.TaskEvicted:
		m.record(ev.At, fmt.Sprintf("evict t=%d task=%s node=%d", now, ev.Task.Key(), int(ev.Node)))
	case sim.JobShed:
		m.record(ev.At, fmt.Sprintf("shed t=%d job=%d reason=%s", now, int(ev.Job.Dag.ID), ev.Shed))
	case sim.JobCancelled:
		m.record(ev.At, fmt.Sprintf("cancel t=%d job=%d", now, int(ev.Job.ID())))
	}
}
