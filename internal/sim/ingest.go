package sim

import (
	"fmt"

	"dsp/internal/dag"
	"dsp/internal/prof"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// Streaming ingestion (Config.Streaming): the serving half of the
// engine. A batch run owns its whole workload up front and drains the
// event queue to empty; a streaming engine starts (possibly) empty and
// accepts jobs over time through Submit, while a driver advances
// simulated time with StepUntil. Submissions are stamped with a
// monotonically increasing virtual arrival time and queue up here; each
// scheduling-period tick drains the prefix of the queue whose stamps
// have been reached, runs admission on every drained job inline, and
// then retires settled jobs (releasing their DAG and task state) so a
// long-running daemon's memory is bounded by the live job set, not the
// job history.
//
// Admission runs inline during the drain — not via armed arrival
// events — so a job's shed-or-admit decision always lands before the
// same tick's plan-build. An armed event would fire after periodTick
// returned and let the scheduler place a job that admission was about
// to shed. The JobShed observer event still carries the job's arrival
// stamp (not the boundary time), keeping the audit stream aligned with
// wall-clock ingestion.
//
// Durability: submissions are deliberately NOT part of engine
// snapshots. The serving layer journals every accepted submission
// (already stamped) before acknowledging it; EngineState records how
// many journal entries had been drained into the world
// (IngestApplied). Because stamps are monotonic, every drain consumes a
// strict prefix of the journal, so resume = rebuild the world from the
// first IngestApplied entries + re-Submit the rest via SubmitStamped.

// ingestEntry is one undrained submission: a job, or — when job is
// nil — a cancellation request for id.
type ingestEntry struct {
	job   *trace.Job
	id    dag.JobID
	stamp units.Time
}

// streamingLive reports whether the streaming engine must keep its
// period/epoch/speculation ticks armed: ingestion is still open (more
// work may arrive) or submitted work has not yet been drained.
func (e *Engine) streamingLive() bool {
	return e.cfg.Streaming && (!e.ingestClosed || len(e.ingest) > 0)
}

// Submit queues a job for ingestion at the next reachable period
// boundary and returns the virtual arrival stamp it was assigned:
// max(requested arrival, clock+1, last issued stamp), so stamps are
// monotone in submission order and never land in the engine's past.
// The job's Arrival field is rewritten to the stamp — the submission
// the caller journals is then byte-identical to the one a resumed
// engine rebuilds, which the snapshot world fingerprint requires.
//
// Structural validation happens here, not at drain time: a malformed
// DAG, duplicate job ID, or unresolvable cross-job dependency is
// rejected synchronously so the serving layer can refuse the request.
func (e *Engine) Submit(tj *trace.Job) (units.Time, error) {
	if err := e.checkSubmit(tj); err != nil {
		return 0, err
	}
	stamp := tj.Arrival
	if min := e.q.Now() + 1; stamp < min {
		stamp = min
	}
	if stamp < e.lastIngestStamp {
		stamp = e.lastIngestStamp
	}
	return stamp, e.enqueueSubmit(tj, stamp)
}

// SubmitStamped re-queues a journaled submission under its original
// stamp, for resume: the serving layer replays the journal suffix that
// the snapshot had not yet drained. Stamps must arrive in journal
// (i.e. monotone) order; a stamp in the engine's past is fine — the
// next period boundary drains it.
func (e *Engine) SubmitStamped(tj *trace.Job, stamp units.Time) error {
	if err := e.checkSubmit(tj); err != nil {
		return err
	}
	if stamp < e.lastIngestStamp {
		return fmt.Errorf("sim: submission stamp %v below last issued stamp %v (journal replayed out of order?)", stamp, e.lastIngestStamp)
	}
	return e.enqueueSubmit(tj, stamp)
}

func (e *Engine) checkSubmit(tj *trace.Job) error {
	if !e.cfg.Streaming {
		return fmt.Errorf("sim: Submit requires Config.Streaming")
	}
	if e.ingestClosed {
		return fmt.Errorf("sim: ingestion closed")
	}
	if tj == nil || tj.DAG == nil {
		return fmt.Errorf("sim: nil job submission")
	}
	if err := tj.DAG.CheckStructure(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	id := tj.DAG.ID
	if _, dup := e.byID[id]; dup {
		return fmt.Errorf("sim: duplicate job id %d", id)
	}
	for _, ent := range e.ingest {
		if ent.job != nil && ent.id == id {
			return fmt.Errorf("sim: duplicate job id %d (already submitted, not yet drained)", id)
		}
	}
	for _, dep := range tj.WaitsFor {
		if dep == id {
			return fmt.Errorf("sim: job %d waits for itself", id)
		}
		if _, ok := e.byID[dep]; ok {
			continue
		}
		found := false
		for _, ent := range e.ingest {
			if ent.job != nil && ent.id == dep {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("sim: job %d waits for unknown job %d", id, dep)
		}
	}
	if tj.DAG.Deadline > 0 {
		// Fail deadline derivation here so drain-time addJob cannot.
		exec := func(tid dag.TaskID) float64 { return tj.DAG.Task(tid).Size }
		if _, err := tj.DAG.TaskDeadlines(tj.DAG.Deadline, exec); err != nil {
			return fmt.Errorf("sim: job %d: %w", id, err)
		}
	}
	return nil
}

func (e *Engine) enqueueSubmit(tj *trace.Job, stamp units.Time) error {
	tj.Arrival = stamp
	e.ingest = append(e.ingest, ingestEntry{job: tj, id: tj.DAG.ID, stamp: stamp})
	e.ingestTasks += tj.DAG.Len()
	e.lastIngestStamp = stamp
	return nil
}

// RequestCancel queues a cancellation for a known job and returns its
// stamp. Cancellation is applied at the next period boundary, after any
// submissions that preceded it; cancelling a job that settles first is
// a harmless no-op, so cancel requests are idempotent. Unknown job IDs
// are rejected (the serving layer turns that into a 404).
func (e *Engine) RequestCancel(id dag.JobID) (units.Time, error) {
	if err := e.checkCancel(id); err != nil {
		return 0, err
	}
	stamp := e.q.Now() + 1
	if stamp < e.lastIngestStamp {
		stamp = e.lastIngestStamp
	}
	return stamp, e.enqueueCancel(id, stamp)
}

// CancelStamped re-queues a journaled cancellation under its original
// stamp, for resume (the cancel analogue of SubmitStamped).
func (e *Engine) CancelStamped(id dag.JobID, stamp units.Time) error {
	if err := e.checkCancel(id); err != nil {
		return err
	}
	if stamp < e.lastIngestStamp {
		return fmt.Errorf("sim: cancel stamp %v below last issued stamp %v (journal replayed out of order?)", stamp, e.lastIngestStamp)
	}
	return e.enqueueCancel(id, stamp)
}

func (e *Engine) checkCancel(id dag.JobID) error {
	if !e.cfg.Streaming {
		return fmt.Errorf("sim: RequestCancel requires Config.Streaming")
	}
	if e.ingestClosed {
		return fmt.Errorf("sim: ingestion closed")
	}
	if _, ok := e.byID[id]; ok {
		return nil
	}
	for _, ent := range e.ingest {
		if ent.job != nil && ent.id == id {
			return nil
		}
	}
	return fmt.Errorf("sim: cancel for unknown job %d", id)
}

func (e *Engine) enqueueCancel(id dag.JobID, stamp units.Time) error {
	e.ingest = append(e.ingest, ingestEntry{id: id, stamp: stamp})
	e.lastIngestStamp = stamp
	return nil
}

// CloseIngest stops accepting submissions. Already-queued entries still
// drain at the following period boundaries; once they have, the ticks
// stop re-arming and the engine winds down like a batch run.
func (e *Engine) CloseIngest() { e.ingestClosed = true }

// drainIngest pulls every queued entry whose stamp has been reached
// into the world, in submission order, running admission inline per
// job. Stamps are monotone, so the drained set is always a queue
// prefix — the property that makes IngestApplied a valid journal
// splice point for resume.
func (e *Engine) drainIngest(now units.Time) {
	n := 0
	for n < len(e.ingest) && e.ingest[n].stamp <= now {
		n++
	}
	if n == 0 {
		return
	}
	tm := e.cfg.Prof
	for i := 0; i < n; i++ {
		ent := e.ingest[i]
		if ent.job == nil {
			e.applyCancel(ent.id, now)
		} else {
			js := e.addJob(ent.job, ent.stamp, now)
			e.ingestTasks -= ent.job.DAG.Len()
			tm.Enter(prof.PhaseAdmission)
			e.admitJob(js, now)
			tm.Exit()
		}
		e.ingestApplied++
	}
	e.ingest = append(e.ingest[:0], e.ingest[n:]...)
	// The job count is mixed first in the fingerprint, so it cannot be
	// extended incrementally; recompute once per drained batch from the
	// per-job cached identities.
	e.worldSum = e.worldFingerprint()
}

// addJob builds the JobState for a drained submission — the streaming
// twin of buildWorld's per-job block. Cross-job dependencies resolve
// against everything drained so far (Submit guaranteed they exist); a
// dependency that already settled unsatisfiably cascades immediately,
// since the settle-time cascades in shedJob/failJob ran before this job
// existed.
func (e *Engine) addJob(tj *trace.Job, stamp, now units.Time) *JobState {
	meanSpeed := e.cfg.Cluster.MeanSpeed()
	js := &JobState{
		Dag:       tj.DAG,
		Arrival:   stamp,
		DoneAt:    -1,
		remaining: tj.DAG.Len(),
		idx:       len(e.jobs),
		id:        tj.DAG.ID,
		fpLen:     tj.DAG.Len(),
		fpSize:    tj.DAG.TotalSize(),
	}
	if tj.DAG.Deadline > 0 {
		js.Deadline = stamp + units.FromSeconds(tj.DAG.Deadline)
	}
	exec := func(id dag.TaskID) float64 { return tj.DAG.Task(id).Size / meanSpeed }
	if _, cp, err := tj.DAG.CriticalPath(exec); err == nil {
		js.ideal = units.FromSeconds(cp)
	}
	var taskDeadlines []float64
	if tj.DAG.Deadline > 0 {
		taskDeadlines, _ = tj.DAG.TaskDeadlines(tj.DAG.Deadline, exec) // checked at Submit
	}
	for _, task := range tj.DAG.Tasks {
		ts := &TaskState{
			Task:       task,
			Job:        js,
			Phase:      Pending,
			Node:       -1,
			FirstStart: -1,
			DoneAt:     -1,
			Deadline:   units.Forever,
			spanStart:  stamp,
		}
		if taskDeadlines != nil {
			ts.Deadline = stamp + units.FromSeconds(taskDeadlines[task.ID])
		}
		js.Tasks = append(js.Tasks, ts)
	}
	e.jobs = append(e.jobs, js)
	e.byID[js.id] = js
	e.jobsRemaining++
	if stamp < e.firstArrival {
		e.firstArrival = stamp
	}
	for _, dep := range tj.WaitsFor {
		if pre := e.byID[dep]; pre != nil && pre != js {
			js.waitsFor = append(js.waitsFor, pre)
		}
	}
	for _, p := range js.waitsFor {
		if p.shed {
			e.shedJob(js, stamp, ShedDependency)
			return js
		}
	}
	for _, p := range js.waitsFor {
		if p.failed {
			e.failJob(js, now)
			return js
		}
	}
	return js
}

// applyCancel resolves a drained cancellation. The job is known (Submit
// ordering guarantees it was drained first); if it settled in the
// meantime the cancel is a no-op.
func (e *Engine) applyCancel(id dag.JobID, now units.Time) {
	if js := e.byID[id]; js != nil {
		e.cancelJob(js, now)
	}
}

// cancelJob withdraws a live job: for accounting it fails — every live
// task is pulled back exactly as a terminal failure would, dependents
// cascade — with the cancelled flag and the JobCancelled event
// recording that the user, not a fault, was the cause.
func (e *Engine) cancelJob(js *JobState, now units.Time) {
	if js.failed || js.shed || js.Done() {
		return
	}
	js.cancelled = true
	e.metrics.JobsCancelled++
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: JobCancelled, At: now, Job: js})
	}
	e.failJob(js, now)
}

// retireSettled releases the DAG and task state of settled jobs so a
// long-running daemon's footprint tracks the live job set. A small
// scalar stub (identity, outcome flags, timestamps) remains — event
// tags index jobs by position, and dependents still read the scalars.
// A settled job with any live event handle (possible transiently for a
// failed job whose backup-cancel raced) is skipped and retried next
// boundary.
func (e *Engine) retireSettled() {
	for _, js := range e.jobs {
		if js.retired || !(js.failed || js.shed || js.Done()) {
			continue
		}
		live := false
		for _, t := range js.Tasks {
			if t.hasDoneEv || t.hasBlockEv || t.hasRetryEv || t.backup != nil {
				live = true
				break
			}
		}
		if live {
			continue
		}
		js.Tasks = nil
		js.Dag = nil
		js.waitsFor = nil
		js.retired = true
	}
}

// StepUntil advances the streaming engine's virtual clock, firing every
// event due at or before limit. It returns the number of events fired.
// Config.Interrupt is observed between StepUntil calls (not between
// individual events); on interrupt the durability sink takes its final
// snapshot and ErrInterrupted is returned, mirroring Execute.
func (e *Engine) StepUntil(limit units.Time) (int, error) {
	tm := e.cfg.Prof
	tm.Enter(prof.PhaseEventPump)
	fired := e.q.RunUntil(limit)
	tm.Exit()
	e.fired += fired
	if e.cfg.Interrupt != nil && e.cfg.Interrupt.Load() {
		if d := e.cfg.Durability; d != nil {
			if err := d.OnInterrupt(e, e.q.Now()); err != nil {
				return fired, fmt.Errorf("sim: interrupted; final snapshot failed: %w", err)
			}
		}
		return fired, ErrInterrupted
	}
	if e.durErr != nil {
		err := e.durErr
		e.durErr = nil
		return fired, fmt.Errorf("sim: durability sink failed: %w", err)
	}
	return fired, nil
}

// Idle reports whether the engine has no live work: every drained job
// settled and nothing is waiting in the ingestion queue.
func (e *Engine) Idle() bool {
	return e.jobsRemaining == 0 && len(e.ingest) == 0
}

// FinishStreaming closes ingestion and runs the engine to completion,
// returning the accumulated metrics — the streaming run's terminal
// Execute.
func (e *Engine) FinishStreaming() (*Result, error) {
	e.CloseIngest()
	return e.Execute()
}

// JobStatus is the externally visible state of one submitted job.
type JobStatus struct {
	ID dag.JobID
	// State is one of: accepted (submitted, not yet drained into the
	// world), pending (drained, no task dispatched yet), running,
	// completed, failed, cancelled, shed.
	State string
	// Arrival is the virtual arrival stamp assigned at submission.
	Arrival units.Time
	// DoneAt is the completion time (-1 unless State is completed).
	DoneAt units.Time
	// TasksTotal and TasksDone count the job's tasks and how many have
	// finished.
	TasksTotal int
	TasksDone  int
}

// JobStatus resolves a job ID to its current status; ok is false for
// IDs never submitted.
func (e *Engine) JobStatus(id dag.JobID) (JobStatus, bool) {
	if js, ok := e.byID[id]; ok {
		st := JobStatus{
			ID:         id,
			Arrival:    js.Arrival,
			DoneAt:     js.DoneAt,
			TasksTotal: js.fpLen,
			TasksDone:  js.fpLen - js.remaining,
		}
		if st.TasksDone < 0 {
			st.TasksDone = 0
		}
		switch {
		case js.shed:
			st.State = "shed"
		case js.cancelled:
			st.State = "cancelled"
		case js.failed:
			st.State = "failed"
		case js.Done():
			st.State = "completed"
		case js.assigned > 0:
			st.State = "running"
		default:
			st.State = "pending"
		}
		return st, true
	}
	for _, ent := range e.ingest {
		if ent.job != nil && ent.id == id {
			return JobStatus{
				ID:         id,
				State:      "accepted",
				Arrival:    ent.stamp,
				DoneAt:     -1,
				TasksTotal: ent.job.DAG.Len(),
			}, true
		}
	}
	return JobStatus{}, false
}

// PendingBacklog returns the admitted-but-unassigned task count as of
// the engine clock — the quantity bounded admission sheds against. The
// serving layer adds IngestTaskCount to it for backpressure decisions.
func (e *Engine) PendingBacklog() int { return e.pendingBacklog(e.q.Now()) }

// IngestTaskCount returns the total tasks of submitted-but-undrained
// jobs.
func (e *Engine) IngestTaskCount() int { return e.ingestTasks }

// IngestApplied returns how many accepted entries (submissions and
// cancellations) have been drained into the world — the journal splice
// point for resume.
func (e *Engine) IngestApplied() int { return e.ingestApplied }

// PeriodIndex returns the number of scheduling periods that have run.
func (e *Engine) PeriodIndex() int { return e.periodIndex }

// JobsTotal returns how many jobs have been drained into the world over
// the engine's lifetime (including settled and retired ones).
func (e *Engine) JobsTotal() int { return len(e.jobs) }

// Metrics exposes the live metric accumulators for read-only sampling
// by the serving layer (the batch path returns them from Execute).
func (e *Engine) Metrics() *Result { return &e.metrics }
