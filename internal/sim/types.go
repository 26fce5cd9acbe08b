// Package sim is the discrete-event data-parallel-cluster simulator that
// hosts the DSP system and its baselines. It reproduces the runtime
// environment of the paper's evaluation: jobs arrive over time, an
// offline scheduler runs periodically (every "unit period", 5 minutes in
// the paper) and assigns tasks to per-node queues with planned start
// times, nodes execute up to slot-many runnable tasks concurrently, and
// an online preemption policy runs every epoch, suspending running tasks
// in favour of waiting ones. Preemption charges the paper's cost model:
// progress rolls back to the last checkpoint (or to zero without
// checkpointing) and resumption pays the recovery time t^r plus σ.
//
// The engine enforces dependencies when it fills free slots itself;
// preemption policies, however, choose explicit (victim, starter) pairs,
// and a policy that ignores dependencies can command a dependent task to
// start before its precedents finished — the engine counts this as a
// "disorder" (Figure 6(a) of the paper), wastes the context switch, and
// returns the starter to the queue.
package sim

import (
	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/eventq"
	"dsp/internal/units"
)

// Phase is a task's lifecycle state.
type Phase int

// Task phases.
const (
	// Pending: arrived but not yet assigned to a node by the scheduler.
	Pending Phase = iota
	// Queued: in a node's waiting queue.
	Queued
	// Running: occupying a slot.
	Running
	// Suspended: preempted; back in the node's waiting queue.
	Suspended
	// Done: finished.
	Done
	// Backoff: a failed attempt is waiting out its retry delay before
	// re-admission to Pending.
	Backoff
	// Failed: the task exhausted its retry budget (terminal).
	Failed
)

func (p Phase) String() string {
	switch p {
	case Pending:
		return "pending"
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Suspended:
		return "suspended"
	case Backoff:
		return "backoff"
	case Failed:
		return "failed"
	default:
		return "done"
	}
}

// TaskState is the simulator's view of one task instance.
type TaskState struct {
	Task *dag.Task
	Job  *JobState

	Phase Phase
	// Node is the node the task is (or was last) assigned to; -1 before
	// first assignment.
	Node cluster.NodeID

	// PlannedStart is the start time the offline schedule chose; node
	// queues are kept in ascending PlannedStart order.
	PlannedStart units.Time
	// QueuedAt is when the task entered its node queue.
	QueuedAt units.Time
	// FirstStart is when the task first occupied a slot (-1 if never).
	FirstStart units.Time
	// DoneAt is when the task completed (-1 if not yet).
	DoneAt units.Time
	// Deadline is the task's absolute deadline derived from the job
	// deadline via the per-level rule (Section IV-B).
	Deadline units.Time
	// Preemptions counts how many times this task was suspended.
	Preemptions int
	// Attempts counts failed execution attempts (transient task faults
	// and crash evictions of the running task) charged against the retry
	// budget. Preemptions and queue evictions are not attempts.
	Attempts int

	// totalWait accumulates all time spent in waiting queues, including
	// re-waits after each suspension.
	totalWait units.Time
	// doneMI is completed work in millions of instructions.
	doneMI float64
	// effStart is when useful work (re)started, after any resume penalty.
	effStart units.Time
	// resumePenalty is the penalty charged at the NEXT start.
	resumePenalty units.Time
	doneEv        eventq.Handle
	hasDoneEv     bool
	// blocked marks a blind-started task occupying a slot while its
	// precedents are unfinished (dependency-blind schedulers only).
	blocked    bool
	blockEv    eventq.Handle
	hasBlockEv bool
	everRan    bool
	// execIndex numbers execution bursts, salting the per-attempt
	// transient-fault draw so a retried task re-rolls its fate.
	execIndex int
	// attemptFailAt is the absolute time the current burst is fated to
	// fail transiently (0 = the burst succeeds).
	attemptFailAt units.Time
	// retryEv re-admits the task to Pending when its backoff expires.
	retryEv    eventq.Handle
	hasRetryEv bool
	// spanStart is when the task's currently open timeline span began
	// (see spans.go); the engine closes it at every state transition.
	spanStart units.Time
	// backup is the live speculative copy, if one is racing this task.
	backup *backupRun
}

// Blocked reports whether the task is blind-started: occupying a slot but
// unable to make progress because a precedent has not finished.
func (t *TaskState) Blocked() bool { return t.blocked }

// TotalWait returns all the time the task has spent in waiting queues so
// far, including re-waits after preemptions.
func (t *TaskState) TotalWait() units.Time { return t.totalWait }

// Key returns the task's global identity.
func (t *TaskState) Key() dag.Key { return t.Task.Key() }

// RemainingMI returns the work left in millions of instructions.
func (t *TaskState) RemainingMI() float64 {
	rem := t.Task.Size - t.doneMI
	if rem < 0 {
		return 0
	}
	return rem
}

// RemainingTime returns the time needed to finish the task at the given
// node speed (MIPS), excluding any resume penalty. For a running task
// this reflects its last checkpointed progress; use LiveRemainingTime to
// include progress made in the current burst.
func (t *TaskState) RemainingTime(speedMIPS float64) units.Time {
	if speedMIPS <= 0 {
		return units.Forever
	}
	return units.FromSeconds(t.RemainingMI() / speedMIPS)
}

// LiveRemainingTime returns the remaining execution time as of now,
// including the progress a currently running task has made since it last
// (re)started. Preemption policies must use this (not RemainingTime) when
// comparing waiting tasks against running victims: with stale remaining
// times a nearly finished victim looks untouched, and a no-checkpoint
// policy such as SRPT would preempt it forever (a live-lock).
func (t *TaskState) LiveRemainingTime(now units.Time, speedMIPS float64) units.Time {
	rem := t.RemainingTime(speedMIPS)
	if rem == units.Forever {
		return rem
	}
	if t.Phase == Running && !t.blocked && now > t.effStart {
		rem -= now - t.effStart
		if rem < 0 {
			rem = 0
		}
	}
	return rem
}

// WaitingTime returns how long the task has been waiting in a queue
// since it was last enqueued (zero for non-waiting tasks).
func (t *TaskState) WaitingTime(now units.Time) units.Time {
	if t.Phase != Queued && t.Phase != Suspended {
		return 0
	}
	if now < t.QueuedAt {
		return 0
	}
	return now - t.QueuedAt
}

// AllowableWait returns t^a = deadline − now − remaining: the longest the
// task can keep waiting and still meet its deadline at the given speed.
// Negative values mean the deadline is already unreachable. Remaining
// time is live (includes the current running burst's progress).
func (t *TaskState) AllowableWait(now units.Time, speedMIPS float64) units.Time {
	return t.Deadline - now - t.LiveRemainingTime(now, speedMIPS)
}

// DepsMet reports whether every precedent task has completed.
func (t *TaskState) DepsMet() bool {
	for _, p := range t.Job.Dag.Parents(t.Task.ID) {
		if t.Job.Tasks[p].Phase != Done {
			return false
		}
	}
	return true
}

// ReadyAt returns the earliest time the task could have started: the
// later of its enqueue time and its last-finishing parent's completion.
// It is only meaningful once DepsMet holds.
func (t *TaskState) ReadyAt() units.Time {
	ready := t.QueuedAt
	for _, p := range t.Job.Dag.Parents(t.Task.ID) {
		pd := t.Job.Tasks[p].DoneAt
		if pd > ready {
			ready = pd
		}
	}
	return ready
}

// JobState is the simulator's view of one job instance.
type JobState struct {
	Dag     *dag.Job
	Arrival units.Time
	// Deadline is the absolute job deadline.
	Deadline units.Time
	Tasks    []*TaskState
	// DoneAt is when the last task finished (-1 while incomplete).
	DoneAt units.Time

	remaining int
	// assigned counts tasks handed to node queues.
	assigned int
	// ideal is the critical-path lower bound at mean cluster speed.
	ideal units.Time
	// waitsFor are jobs that must complete before this one may be
	// scheduled (cross-job dependencies).
	waitsFor []*JobState
	// failed marks a job terminated by a terminal task failure (or the
	// terminal failure of a job it waits for).
	failed bool
	// shed marks a job rejected by admission control at arrival (or the
	// shedding of a job it waits for). Shed jobs never run; they count
	// as shed, not failed or deadline-missed.
	shed bool
	// cancelled marks a job withdrawn by an explicit cancel request
	// (streaming ingestion only). A cancelled job is failed for
	// accounting purposes — its live tasks are withdrawn exactly like a
	// terminal failure's — with this flag recording the cause.
	cancelled bool
	// retired marks a settled job whose Dag and task state were released
	// to bound streaming-mode memory; only scalar fields (and the cached
	// id/fpLen/fpSize identity below) remain valid.
	retired bool
	// id, fpLen and fpSize cache Dag.ID, Dag.Len() and Dag.TotalSize()
	// at build time so retired jobs keep their identity and the world
	// fingerprint never needs the released DAG.
	id     dag.JobID
	fpLen  int
	fpSize float64
	// idx is the job's position in the workload's job list — the stable
	// integer identity event tags and snapshots use.
	idx int
}

// ID returns the job's DAG identity. Unlike j.Dag.ID it stays valid
// after a settled streaming job is retired and its DAG released.
func (j *JobState) ID() dag.JobID { return j.id }

// TaskCount returns the job's total task count, valid even after
// retirement.
func (j *JobState) TaskCount() int { return j.fpLen }

// Failed reports whether the job was terminated by a terminal task
// failure (directly, or transitively via a failed prerequisite job).
func (j *JobState) Failed() bool { return j.failed }

// Cancelled reports whether the job was withdrawn by an explicit cancel
// request (streaming ingestion). Cancelled implies Failed.
func (j *JobState) Cancelled() bool { return j.cancelled }

// Retired reports whether the settled job's DAG and task state were
// released to bound streaming memory (see Config.Streaming).
func (j *JobState) Retired() bool { return j.retired }

// Shed reports whether admission control rejected the job (directly, or
// transitively via a shed prerequisite job).
func (j *JobState) Shed() bool { return j.shed }

// EligibleAt returns when the job became eligible to schedule: its
// arrival, or the completion of its last cross-job prerequisite,
// whichever is later. While a prerequisite is unfinished it returns
// Forever.
func (j *JobState) EligibleAt() units.Time {
	at := j.Arrival
	for _, p := range j.waitsFor {
		if !p.Done() {
			return units.Forever
		}
		if p.DoneAt > at {
			at = p.DoneAt
		}
	}
	return at
}

// Eligible reports whether every cross-job prerequisite has completed.
func (j *JobState) Eligible() bool {
	for _, p := range j.waitsFor {
		if !p.Done() {
			return false
		}
	}
	return true
}

// Done reports whether every task of the job has completed.
func (j *JobState) Done() bool { return j.remaining == 0 }

// Remaining returns the number of tasks that still have to complete.
func (j *JobState) Remaining() int { return j.remaining }

// MetDeadline reports whether the job finished by its deadline.
func (j *JobState) MetDeadline() bool {
	return j.Done() && (j.Deadline <= 0 || j.DoneAt <= j.Deadline)
}

// PendingTasks returns the job's tasks not yet assigned to a node.
func (j *JobState) PendingTasks() []*TaskState {
	var out []*TaskState
	for _, t := range j.Tasks {
		if t.Phase == Pending {
			out = append(out, t)
		}
	}
	return out
}
