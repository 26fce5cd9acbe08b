package sim

import (
	"errors"
	"fmt"
	"math"

	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/eventq"
	"dsp/internal/prof"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// Crash tolerance for the scheduler itself (ROADMAP: online serving
// mode). The engine is a deterministic closure-driven event loop, so
// durability is split in two:
//
//   - Every event the engine arms carries an eventq.Tag — a small
//     serializable descriptor (kind + job/task/node operands) from which
//     the closure can be reconstructed. CaptureState walks the live
//     world (jobs, tasks, nodes, queues, speculative copies, metrics,
//     pending events) into an EngineState; PrepareResume rebuilds the
//     world from the workload, overlays that state, and re-arms every
//     pending event in its recorded firing order, reproducing the exact
//     event sequence the uninterrupted run would have executed.
//   - A DurabilitySink (internal/recover) persists those states every K
//     scheduling periods and keeps a write-ahead log of decision events
//     between snapshots, verified against the deterministic roll-forward
//     on recovery.
//
// There is no live RNG to capture: all stochastic draws (task faults)
// are stateless hashes of (seed, job, task, execIndex), so serializing
// execIndex per task serializes the stream position.

// ErrInterrupted is returned by Execute when the run was stopped via
// Config.Interrupt (graceful SIGINT/SIGTERM). The durability sink, if
// any, has already been given its final-snapshot callback.
var ErrInterrupted = errors.New("sim: interrupted")

// DurabilitySink receives period-boundary callbacks from the engine so
// an external recovery manager can snapshot state and rotate its
// write-ahead log without the engine importing it.
type DurabilitySink interface {
	// SnapshotDue reports whether OnPeriod will capture a snapshot for
	// this period; the engine uses it to emit the SnapshotTaken observer
	// event (and hence the audit line) before the sink records the audit
	// offset inside the snapshot.
	SnapshotDue(period int) bool
	// OnPeriod runs at the very end of the period-th scheduling tick,
	// after all scheduling work has settled. An error aborts the run.
	OnPeriod(e *Engine, period int, now units.Time) error
	// OnInterrupt runs when the event pump is stopped via
	// Config.Interrupt, to take a final snapshot at the interrupt
	// boundary.
	OnInterrupt(e *Engine, now units.Time) error
}

// DurableComponent is implemented by schedulers (or preemptors) that
// carry decision-affecting state between scheduling rounds — e.g. the
// DSP scheduler's warm-start plan, which seeds its budgeted ILP solves.
// Such state must travel with the snapshot or a resumed run could
// diverge from the uninterrupted one.
type DurableComponent interface {
	// DurableState serializes the component's round-to-round state.
	DurableState() ([]byte, error)
	// RestoreDurableState overlays previously serialized state.
	RestoreDurableState([]byte) error
}

// Event tag kinds: everything the engine ever arms on its queue. The A/B
// tag operands hold (job index, task ID) for task events, a node ID for
// node events; F holds a straggler speed factor.
const (
	evArrival uint8 = iota + 1
	evPeriodTick
	evEpochTick
	evSpecTick
	evComplete
	evTransientFail
	evBlockTimeout
	evRetry
	evNodeFail
	evNodeRecover
	evSpeed
	evBackupComplete
)

// taskTag builds the event tag for a per-task event.
func taskTag(kind uint8, t *TaskState) eventq.Tag {
	return eventq.Tag{Kind: kind, A: int32(t.Job.idx), B: int32(t.Task.ID)}
}

// EngineState is the complete serializable dynamic state of a running
// simulation: everything not reconstructible from (Config, Workload).
// Captured by CaptureState at inter-event boundaries; applied by
// PrepareResume onto a freshly built world.
type EngineState struct {
	Now           units.Time
	PeriodIndex   int
	EpochIndex    int
	LastDone      units.Time
	JobsRemaining int
	ActiveBackups int
	// IngestApplied is the streaming-ingestion journal splice point: how
	// many accepted entries had been drained into the world at capture
	// time. The serving layer rebuilds the resume workload from the
	// first IngestApplied journal entries and re-submits the rest.
	IngestApplied int `json:",omitempty"`
	// WorldSum fingerprints (workload, cluster, key config) so a snapshot
	// cannot be restored against a different world.
	WorldSum uint64
	Jobs     []jobSnap
	Nodes    []nodeSnap
	// Events is the pending event set in firing order; re-arming in this
	// order on a fresh queue reproduces FIFO tie-breaks exactly.
	Events  []eventSnap
	Metrics metricsSnap
	// Scheduler carries the scheduler's DurableComponent state (nil when
	// the scheduler is stateless).
	Scheduler []byte `json:",omitempty"`
	// AuditOffset is the audit-stream byte offset at capture time, set by
	// the recovery manager (-1 when no audit stream is attached). On
	// resume the audit file is truncated here and the roll-forward
	// re-emits the suffix byte-identically.
	AuditOffset int64
}

type jobSnap struct {
	DoneAt    units.Time
	Remaining int
	Assigned  int
	Failed    bool
	Shed      bool
	// Cancelled and Retired carry the streaming-mode flags: a cancelled
	// job is failed with a recorded cause; a retired job's task state
	// was released, so its snapshot carries no Tasks and restore
	// re-releases the rebuilt ones.
	Cancelled bool `json:",omitempty"`
	Retired   bool `json:",omitempty"`
	Tasks     []taskSnap
}

type taskSnap struct {
	Phase         Phase
	Node          int32
	PlannedStart  units.Time
	QueuedAt      units.Time
	FirstStart    units.Time
	DoneAt        units.Time
	Preemptions   int
	Attempts      int
	TotalWait     units.Time
	DoneMI        float64
	EffStart      units.Time
	ResumePenalty units.Time
	Blocked       bool
	EverRan       bool
	ExecIndex     int
	AttemptFailAt units.Time
	SpanStart     units.Time
}

// taskRef names a task by (job index, task ID) — the same coordinates
// event tags use.
type taskRef struct{ Job, Task int32 }

type nodeSnap struct {
	Down        bool
	SpeedFactor float64
	Penalty     float64
	PenaltyAt   units.Time
	Blacklisted bool
	// Running and Queue are ordered task references; queue order is the
	// dispatch order and must survive the round trip.
	Running []taskRef
	Queue   []taskRef
	Spec    []backupSnap
}

type backupSnap struct {
	Job, Task  int32
	Base, Done float64
	EffStart   units.Time
	Launched   units.Time
}

type eventSnap struct {
	At   units.Time
	Kind uint8
	A, B int32
	F    float64
}

// metricsSnap carries the full Result, including its unexported
// accumulators (finalize needs them on the resumed side).
type metricsSnap struct {
	Result            Result
	TotalJobWait      units.Time
	JobWaitSamples    int
	TotalTaskWait     units.Time
	TaskWaitSamples   int
	TotalJobQueueWait units.Time
}

// CaptureState serializes the engine's complete dynamic state. Valid at
// any inter-event boundary (the pending queue is captured whole). It
// fails if any pending event lacks a serializable tag — that would mean
// an engine code path armed an untagged closure, which restore could
// not reconstruct.
func (e *Engine) CaptureState() (*EngineState, error) {
	st := &EngineState{
		Now:           e.q.Now(),
		PeriodIndex:   e.periodIndex,
		EpochIndex:    e.epochIndex,
		LastDone:      e.lastDone,
		JobsRemaining: e.jobsRemaining,
		ActiveBackups: e.activeBackups,
		IngestApplied: e.ingestApplied,
		WorldSum:      e.worldSum,
		AuditOffset:   -1,
	}
	for _, js := range e.jobs {
		j := jobSnap{
			DoneAt:    js.DoneAt,
			Remaining: js.remaining,
			Assigned:  js.assigned,
			Failed:    js.failed,
			Shed:      js.shed,
			Cancelled: js.cancelled,
			Retired:   js.retired,
			Tasks:     make([]taskSnap, 0, len(js.Tasks)),
		}
		for _, t := range js.Tasks {
			j.Tasks = append(j.Tasks, taskSnap{
				Phase:         t.Phase,
				Node:          int32(t.Node),
				PlannedStart:  t.PlannedStart,
				QueuedAt:      t.QueuedAt,
				FirstStart:    t.FirstStart,
				DoneAt:        t.DoneAt,
				Preemptions:   t.Preemptions,
				Attempts:      t.Attempts,
				TotalWait:     t.totalWait,
				DoneMI:        t.doneMI,
				EffStart:      t.effStart,
				ResumePenalty: t.resumePenalty,
				Blocked:       t.blocked,
				EverRan:       t.everRan,
				ExecIndex:     t.execIndex,
				AttemptFailAt: t.attemptFailAt,
				SpanStart:     t.spanStart,
			})
		}
		st.Jobs = append(st.Jobs, j)
	}
	for _, ns := range e.nodes {
		n := nodeSnap{
			Down:        ns.down,
			SpeedFactor: ns.speedFactor,
			Penalty:     ns.penalty,
			PenaltyAt:   ns.penaltyAt,
			Blacklisted: ns.blacklisted,
		}
		for _, t := range ns.running {
			n.Running = append(n.Running, refOf(t))
		}
		for _, t := range ns.queue {
			n.Queue = append(n.Queue, refOf(t))
		}
		for _, br := range ns.spec {
			n.Spec = append(n.Spec, backupSnap{
				Job:      int32(br.task.Job.idx),
				Task:     int32(br.task.Task.ID),
				Base:     br.base,
				Done:     br.done,
				EffStart: br.effStart,
				Launched: br.launched,
			})
		}
		st.Nodes = append(st.Nodes, n)
	}
	for _, pe := range e.q.Pending() {
		if pe.Tag.Kind == 0 {
			return nil, fmt.Errorf("sim: cannot snapshot at t=%v: pending event without a serializable tag", st.Now)
		}
		st.Events = append(st.Events, eventSnap{At: pe.At, Kind: pe.Tag.Kind, A: pe.Tag.A, B: pe.Tag.B, F: pe.Tag.F})
	}
	st.Metrics = metricsSnap{
		Result:            e.metrics,
		TotalJobWait:      e.metrics.totalJobWait,
		JobWaitSamples:    e.metrics.jobWaitSamples,
		TotalTaskWait:     e.metrics.totalTaskWait,
		TaskWaitSamples:   e.metrics.taskWaitSamples,
		TotalJobQueueWait: e.metrics.totalJobQueueWait,
	}
	if dc, ok := e.cfg.Scheduler.(DurableComponent); ok {
		b, err := dc.DurableState()
		if err != nil {
			return nil, fmt.Errorf("sim: scheduler durable state: %w", err)
		}
		st.Scheduler = b
	}
	return st, nil
}

func refOf(t *TaskState) taskRef {
	return taskRef{Job: int32(t.Job.idx), Task: int32(t.Task.ID)}
}

// PrepareResume rebuilds an engine from a previously captured state.
// The workload must be generated identically to the original run's (the
// engine mutates job DAGs in place, so a fresh copy is required — the
// WorldSum fingerprint rejects mismatches). Execute then rolls the
// simulation forward deterministically from the snapshot point.
func PrepareResume(cfg Config, w *trace.Workload, st *EngineState) (*Engine, error) {
	e, err := newEngine(&cfg, w)
	if err != nil {
		return nil, err
	}
	tm := e.cfg.Prof
	tm.Enter(prof.PhaseSetup)
	err = e.buildWorld(w)
	if err == nil {
		err = e.applyState(st)
	}
	tm.Exit()
	if err != nil {
		return nil, err
	}
	return e, nil
}

// applyState overlays a captured state onto a freshly built world and
// re-arms the pending events. Every reference is bounds-checked: a
// corrupt or mismatched state yields an error, never a panic.
func (e *Engine) applyState(st *EngineState) error {
	if st.WorldSum != e.worldSum {
		return fmt.Errorf("sim: snapshot world fingerprint %#x does not match this config/workload (%#x); resume needs the identical workload and config", st.WorldSum, e.worldSum)
	}
	if len(st.Nodes) != len(e.nodes) {
		return fmt.Errorf("sim: snapshot has %d nodes, cluster has %d", len(st.Nodes), len(e.nodes))
	}
	if len(st.Jobs) != len(e.jobs) {
		return fmt.Errorf("sim: snapshot has %d jobs, workload has %d", len(st.Jobs), len(e.jobs))
	}
	for i, js := range e.jobs {
		snap := &st.Jobs[i]
		js.DoneAt = snap.DoneAt
		js.remaining = snap.Remaining
		js.assigned = snap.Assigned
		js.failed = snap.Failed
		js.shed = snap.Shed
		js.cancelled = snap.Cancelled
		if snap.Retired {
			// The snapshot released this settled job's state; release the
			// freshly rebuilt copy the same way instead of overlaying.
			js.Tasks = nil
			js.Dag = nil
			js.waitsFor = nil
			js.retired = true
			continue
		}
		if len(snap.Tasks) != len(js.Tasks) {
			return fmt.Errorf("sim: snapshot job %d has %d tasks, world has %d", js.id, len(snap.Tasks), len(js.Tasks))
		}
		for ti, t := range js.Tasks {
			ts := &snap.Tasks[ti]
			if n := int(ts.Node); n < -1 || n >= len(e.nodes) {
				return fmt.Errorf("sim: snapshot task %d.%d node %d out of range", js.Dag.ID, t.Task.ID, n)
			}
			t.Phase = ts.Phase
			t.Node = cluster.NodeID(ts.Node)
			t.PlannedStart = ts.PlannedStart
			t.QueuedAt = ts.QueuedAt
			t.FirstStart = ts.FirstStart
			t.DoneAt = ts.DoneAt
			t.Preemptions = ts.Preemptions
			t.Attempts = ts.Attempts
			t.totalWait = ts.TotalWait
			t.doneMI = ts.DoneMI
			t.effStart = ts.EffStart
			t.resumePenalty = ts.ResumePenalty
			t.blocked = ts.Blocked
			t.everRan = ts.EverRan
			t.execIndex = ts.ExecIndex
			t.attemptFailAt = ts.AttemptFailAt
			t.spanStart = ts.SpanStart
		}
	}
	for k, ns := range e.nodes {
		snap := &st.Nodes[k]
		ns.down = snap.Down
		ns.speedFactor = snap.SpeedFactor
		ns.penalty = snap.Penalty
		ns.penaltyAt = snap.PenaltyAt
		ns.blacklisted = snap.Blacklisted
		for _, ref := range snap.Running {
			t, err := e.taskOf(ref)
			if err != nil {
				return err
			}
			ns.running = append(ns.running, t)
		}
		for _, ref := range snap.Queue {
			t, err := e.taskOf(ref)
			if err != nil {
				return err
			}
			ns.queue = append(ns.queue, t)
		}
		for _, bs := range snap.Spec {
			t, err := e.taskOf(taskRef{Job: bs.Job, Task: bs.Task})
			if err != nil {
				return err
			}
			br := &backupRun{
				task:     t,
				node:     cluster.NodeID(k),
				base:     bs.Base,
				done:     bs.Done,
				effStart: bs.EffStart,
				launched: bs.Launched,
			}
			ns.spec = append(ns.spec, br)
			t.backup = br
		}
	}
	e.metrics = st.Metrics.Result
	e.metrics.totalJobWait = st.Metrics.TotalJobWait
	e.metrics.jobWaitSamples = st.Metrics.JobWaitSamples
	e.metrics.totalTaskWait = st.Metrics.TotalTaskWait
	e.metrics.taskWaitSamples = st.Metrics.TaskWaitSamples
	e.metrics.totalJobQueueWait = st.Metrics.TotalJobQueueWait
	e.jobsRemaining = st.JobsRemaining
	e.activeBackups = st.ActiveBackups
	e.lastDone = st.LastDone
	e.epochIndex = st.EpochIndex
	e.periodIndex = st.PeriodIndex
	e.ingestApplied = st.IngestApplied
	if dc, ok := e.cfg.Scheduler.(DurableComponent); ok && st.Scheduler != nil {
		if err := dc.RestoreDurableState(st.Scheduler); err != nil {
			return fmt.Errorf("sim: scheduler durable state: %w", err)
		}
	}
	// Fresh queue with the clock at the snapshot instant; re-arm pending
	// events in recorded firing order so sequence tie-breaks reproduce.
	e.q = eventq.NewAt(st.Now)
	if e.cfg.Interrupt != nil {
		e.q.SetStop(e.cfg.Interrupt)
	}
	for i := range st.Events {
		if err := e.armEvent(&st.Events[i]); err != nil {
			return err
		}
	}
	return nil
}

// jobByID finds a job state by DAG identity (nil if unknown).
func (e *Engine) jobByID(id dag.JobID) *JobState { return e.byID[id] }

// taskOf resolves a snapshot task reference, bounds-checked.
func (e *Engine) taskOf(ref taskRef) (*TaskState, error) {
	if int(ref.Job) < 0 || int(ref.Job) >= len(e.jobs) {
		return nil, fmt.Errorf("sim: snapshot references job index %d out of range [0, %d)", ref.Job, len(e.jobs))
	}
	js := e.jobs[ref.Job]
	for _, t := range js.Tasks {
		if t.Task.ID == dag.TaskID(ref.Task) {
			return t, nil
		}
	}
	return nil, fmt.Errorf("sim: snapshot references unknown task %d of job %d", ref.Task, js.Dag.ID)
}

// armEvent reconstructs one pending event from its serialized tag. The
// shared arm* helpers guarantee a restored event's closure (and its
// handle links into task state) is identical to the one the original
// run armed.
func (e *Engine) armEvent(ev *eventSnap) error {
	taskEvent := func() (*TaskState, error) {
		return e.taskOf(taskRef{Job: ev.A, Task: ev.B})
	}
	nodeEvent := func() (cluster.NodeID, error) {
		if int(ev.A) < 0 || int(ev.A) >= len(e.nodes) {
			return 0, fmt.Errorf("sim: snapshot event references node %d out of range", ev.A)
		}
		return cluster.NodeID(ev.A), nil
	}
	switch ev.Kind {
	case evArrival:
		if int(ev.A) < 0 || int(ev.A) >= len(e.jobs) {
			return fmt.Errorf("sim: snapshot arrival references job index %d out of range", ev.A)
		}
		e.armArrival(e.jobs[ev.A], ev.At)
	case evPeriodTick:
		e.q.AtTag(ev.At, eventq.Tag{Kind: evPeriodTick}, eventq.Func(e.periodTick))
	case evEpochTick:
		if e.cfg.Preemptor == nil {
			return fmt.Errorf("sim: snapshot has an epoch tick but the config has no preemptor")
		}
		e.q.AtTag(ev.At, eventq.Tag{Kind: evEpochTick}, eventq.Func(e.epochTick))
	case evSpecTick:
		if e.cfg.Speculation == nil {
			return fmt.Errorf("sim: snapshot has a speculation tick but the config has no speculation policy")
		}
		e.q.AtTag(ev.At, eventq.Tag{Kind: evSpecTick}, eventq.Func(e.specTick))
	case evComplete:
		t, err := taskEvent()
		if err != nil {
			return err
		}
		e.armComplete(t.Node, t, ev.At)
	case evTransientFail:
		t, err := taskEvent()
		if err != nil {
			return err
		}
		e.armTransientFail(t.Node, t, ev.At)
	case evBlockTimeout:
		t, err := taskEvent()
		if err != nil {
			return err
		}
		k := t.Node
		t.blockEv = e.q.AtTag(ev.At, taskTag(evBlockTimeout, t), eventq.Func(func(at units.Time) {
			e.kickBlocked(k, t, at)
		}))
		t.hasBlockEv = true
	case evRetry:
		t, err := taskEvent()
		if err != nil {
			return err
		}
		e.armRetry(t, ev.At)
	case evNodeFail:
		k, err := nodeEvent()
		if err != nil {
			return err
		}
		e.q.AtTag(ev.At, eventq.Tag{Kind: evNodeFail, A: ev.A}, eventq.Func(func(now units.Time) {
			e.failNode(k, now)
		}))
	case evNodeRecover:
		k, err := nodeEvent()
		if err != nil {
			return err
		}
		e.q.AtTag(ev.At, eventq.Tag{Kind: evNodeRecover, A: ev.A}, eventq.Func(func(now units.Time) {
			e.recoverNode(k, now)
		}))
	case evSpeed:
		k, err := nodeEvent()
		if err != nil {
			return err
		}
		factor := ev.F
		if !(factor > 0) || math.IsInf(factor, 0) {
			return fmt.Errorf("sim: snapshot speed event has invalid factor %v", factor)
		}
		e.q.AtTag(ev.At, eventq.Tag{Kind: evSpeed, A: ev.A, F: factor}, eventq.Func(func(now units.Time) {
			e.setSpeedFactor(k, factor, now)
		}))
	case evBackupComplete:
		t, err := taskEvent()
		if err != nil {
			return err
		}
		if t.backup == nil {
			return fmt.Errorf("sim: snapshot backup completion for task %d.%d with no live backup", ev.A, ev.B)
		}
		e.armBackupComplete(t.backup, ev.At)
	default:
		return fmt.Errorf("sim: snapshot contains unknown event kind %d", ev.Kind)
	}
	return nil
}

// FindTask resolves a (job, task) identity to its live state, for audit
// rehydration on resume. It returns nil for unknown identities and for
// jobs already settled (done, failed, or shed) — their spans were fully
// consumed before the snapshot and must not be replayed.
func (e *Engine) FindTask(job dag.JobID, task dag.TaskID) *TaskState {
	js := e.jobByID(job)
	if js == nil || js.Done() || js.failed || js.shed {
		return nil
	}
	for _, t := range js.Tasks {
		if t.Task.ID == task {
			return t
		}
	}
	return nil
}

// worldFingerprint hashes the parts of (workload, cluster, config) that
// restored state depends on. Snapshots embed it; applyState refuses a
// mismatch.
func (e *Engine) worldFingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mixs := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
	}
	mix(uint64(len(e.jobs)))
	mix(uint64(len(e.nodes)))
	mix(uint64(e.cfg.Period))
	mix(uint64(e.cfg.Epoch))
	mixs(e.cfg.Scheduler.Name())
	if e.cfg.Preemptor != nil {
		mix(1)
	}
	if e.cfg.Speculation != nil {
		mix(2)
	}
	if p := e.cfg.Faults; p != nil {
		mix(uint64(len(p.Failures)))
		mix(uint64(len(p.Stragglers)))
	}
	for _, js := range e.jobs {
		// Cached identity, not js.Dag — retired streaming jobs have
		// released their DAG, and the fingerprint must survive that.
		mix(uint64(js.id))
		mix(uint64(js.Arrival))
		mix(uint64(js.fpLen))
		mix(math.Float64bits(js.fpSize))
	}
	return h
}
