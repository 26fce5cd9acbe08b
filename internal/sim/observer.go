package sim

import (
	"fmt"

	"dsp/internal/cluster"
	"dsp/internal/units"
)

// Verdict classifies the outcome of one preemption decision — the
// reasoning behind Algorithm 1 that a PreemptionConsidered event makes
// visible.
type Verdict uint8

// Preemption decision outcomes.
const (
	// VerdictAccepted: conditions C1/C2 (and PP, when enabled) held and
	// the victim was suspended for the candidate.
	VerdictAccepted Verdict = iota
	// VerdictSuppressedByPP: the candidate out-prioritized the victim,
	// but the normalized-priority filter judged the gain too small to
	// cover the context-switch cost, so no preemption happened.
	VerdictSuppressedByPP
	// VerdictUrgentOverride: an urgent task (allowable wait ≤ ε or
	// waiting ≥ τ) preempted unconditionally, bypassing C1 and PP.
	VerdictUrgentOverride
	// VerdictDisorder: the policy ordered a starter whose precedents had
	// not finished; the node refused the eviction and the attempt was
	// counted as a dependency disorder.
	VerdictDisorder
)

func (v Verdict) String() string {
	switch v {
	case VerdictAccepted:
		return "accepted"
	case VerdictSuppressedByPP:
		return "suppressed-by-PP"
	case VerdictUrgentOverride:
		return "urgent-override"
	case VerdictDisorder:
		return "disorder"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// PreemptionDecision captures one considered preemption: who wanted the
// slot, who would have yielded it, the priorities that drove the choice,
// and the verdict. Accepted and urgent-override decisions correspond 1:1
// with Result.Preemptions; disorder decisions with Result.Disorders.
type PreemptionDecision struct {
	Node cluster.NodeID
	// Candidate is the waiting task that wanted the slot.
	Candidate *TaskState
	// Victim is the running task examined (never nil).
	Victim *TaskState
	// CandidatePriority and VictimPriority are the policy's priority
	// values at decision time (zero for policies that do not report them).
	CandidatePriority float64
	VictimPriority    float64
	// Gain is the priority difference CandidatePriority−VictimPriority,
	// the throughput benefit proxy the PP filter weighs.
	Gain float64
	// Overhead is the PP threshold ρ·P̄ the gain had to exceed (zero when
	// the filter was disabled or not applicable).
	Overhead float64
	// Urgent marks decisions taken in the urgent pass (ε/τ trigger).
	Urgent  bool
	Verdict Verdict
}

// RequeueReason says why a task went back to its node queue outside the
// normal preemption path.
type RequeueReason uint8

// Requeue reasons.
const (
	// RequeueBlindTimeout: a blind-started task spent BlindTimeout in a
	// slot without its inputs appearing and was demoted back to the queue.
	RequeueBlindTimeout RequeueReason = iota
)

func (r RequeueReason) String() string {
	switch r {
	case RequeueBlindTimeout:
		return "blind-timeout"
	default:
		return fmt.Sprintf("requeue(%d)", uint8(r))
	}
}

// RetryReason says why an execution attempt failed and was charged
// against the task's retry budget.
type RetryReason uint8

// Retry reasons.
const (
	// RetryTaskFault: the attempt hit an injected transient task fault.
	RetryTaskFault RetryReason = iota
	// RetryCrashEviction: the node crashed under the running attempt.
	RetryCrashEviction
)

func (r RetryReason) String() string {
	switch r {
	case RetryTaskFault:
		return "task-fault"
	case RetryCrashEviction:
		return "crash-eviction"
	default:
		return fmt.Sprintf("retry(%d)", uint8(r))
	}
}

// SolverTier names a rung of the offline scheduler's degradation ladder,
// from the exact Section III ILP at the top down to arrival-order FIFO
// placement at the bottom.
type SolverTier uint8

// Degradation-ladder rungs.
const (
	// TierILPExact: the Section III ILP solved to proven optimality.
	TierILPExact SolverTier = iota
	// TierILPIncumbent: the ILP's best incumbent, used after a work
	// budget ran out before optimality was proven.
	TierILPIncumbent
	// TierList: the dependency-aware list heuristic.
	TierList
	// TierFIFO: arrival-order round-robin placement, the last resort
	// under extreme overload.
	TierFIFO
)

func (t SolverTier) String() string {
	switch t {
	case TierILPExact:
		return "ilp-exact"
	case TierILPIncumbent:
		return "ilp-incumbent"
	case TierList:
		return "list"
	case TierFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// SolverDegradation describes one downgrade along the scheduler's ladder:
// which rung was attempted, which one actually produced the placement,
// and why.
type SolverDegradation struct {
	From, To SolverTier
	// Reason is a short machine-readable cause: a solver status
	// ("node-limit", "aborted", "infeasible"), "model-too-large" for the
	// ILP size cutoff, "no-usable-machines", or
	// "pending-tasks-over-limit" for the FIFO demotion.
	Reason string
	// PendingTasks is the instance size (unassigned tasks) being placed.
	PendingTasks int
	// Nodes is the number of branch-and-bound nodes explored before the
	// downgrade (0 when no exact solve ran).
	Nodes int
}

// ShedReason says why admission control rejected a job at arrival.
type ShedReason uint8

// Shed reasons.
const (
	// ShedQueueFull: admitting the job would push the pending-task
	// backlog past Admission.MaxPendingTasks.
	ShedQueueFull ShedReason = iota
	// ShedDeadlineInfeasible: the job's critical path alone, run
	// back-to-back on the fastest node, already overshoots its deadline —
	// it provably cannot meet it, so running it would only waste slots.
	ShedDeadlineInfeasible
	// ShedDependency: a job this one waits for was itself shed, so this
	// one can never become eligible.
	ShedDependency
)

func (r ShedReason) String() string {
	switch r {
	case ShedQueueFull:
		return "queue-full"
	case ShedDeadlineInfeasible:
		return "deadline-infeasible"
	case ShedDependency:
		return "dependency-shed"
	default:
		return fmt.Sprintf("shed(%d)", uint8(r))
	}
}

// InvariantViolation describes one inconsistency the runtime auditor
// caught in the engine's own state (see Config.AuditInvariants).
type InvariantViolation struct {
	// Check names the violated invariant: "slot-capacity",
	// "down-node-running", "duplicate-task", "phase-running",
	// "phase-queued", "node-mismatch", "dependency-order", "queue-order",
	// or "progress-overflow".
	Check string
	// Node is the node involved (-1 when not node-specific).
	Node cluster.NodeID
	// Task is the offending task (nil for node-level violations).
	Task *TaskState
	// Detail is a human-readable description of what was found.
	Detail string
}

// EventKind names one class of engine event. The comment on each kind
// lists the Event fields it sets; At is always set.
type EventKind uint8

// Event kinds.
const (
	// TaskStarted: Task occupies a slot on Node (including resume after
	// preemption and blind starts of blocked tasks).
	TaskStarted EventKind = iota
	// TaskPreempted: the running Task is suspended on Node; Starter is the
	// task that took its slot (nil when none did).
	TaskPreempted
	// TaskCompleted: Task finishes on Node.
	TaskCompleted
	// JobCompleted: Job's last task finishes.
	JobCompleted
	// EpochStarted: the online preemption policy is about to run epoch N;
	// epochs count from 1.
	EpochStarted
	// EpochEnded: epoch N's actions were applied and free slots refilled.
	// View is valid only for the duration of the call and gives read
	// access for per-epoch sampling (queue depths, busy slots, …).
	EpochEnded
	// PreemptionConsidered: one preemption decision with a definite
	// outcome (Decision): accepted, urgent-override and disorder verdicts
	// come from the engine as actions are applied; suppressed-by-PP
	// verdicts come from the DSP policy as it evaluates the filter.
	PreemptionConsidered
	// DisorderDetected: a policy ordered Starter, whose precedents have not
	// finished, to evict Task on Node (alongside the disorder-verdict
	// PreemptionConsidered event).
	DisorderDetected
	// NodeFailed and NodeRecovered: an injected fault-plan event on Node.
	NodeFailed
	NodeRecovered
	// TaskEvicted: a node crash threw Task (running or queued) back into
	// the pending pool; Node is where it was evicted from.
	TaskEvicted
	// TaskRequeued: Task re-entered Node's queue outside the preemption
	// path, for Requeue.
	TaskRequeued
	// TaskRetried: a failed execution attempt of Task on Node was charged
	// against its retry budget for Retry, and the task re-admitted
	// (directly to Pending, or to Backoff first); N counts failed attempts
	// so far.
	TaskRetried
	// TaskFailedTerminally: Task exhausted its retry budget on Node; its
	// job (and any job transitively waiting on it) fails with it.
	TaskFailedTerminally
	// SpeculationLaunched: a backup copy of the straggling Task started on
	// Peer; Node is where the original runs.
	SpeculationLaunched
	// SpeculationWon: the backup copy of Task on Node finished first; the
	// primary attempt on Peer is cancelled.
	SpeculationWon
	// SpeculationCancelled: the backup copy of Task on Node was abandoned
	// (the primary finished first, its node crashed, or the job failed).
	SpeculationCancelled
	// NodeBlacklisted: Node's decayed failure penalty crossed the
	// blacklist threshold (rising edge only).
	NodeBlacklisted
	// SolverDegraded: the offline scheduler fell down its degradation
	// ladder (exact ILP → anytime incumbent → list → FIFO) instead of
	// placing work with the tier it attempted (Degradation).
	SolverDegraded
	// JobShed: admission control rejected Job at arrival for Shed; the
	// job counts as shed, not failed or deadline-missed. At is the job's
	// arrival (ingestion) timestamp — under streaming ingestion the
	// decision is evaluated at the period boundary that drained the job,
	// but the event carries the arrival instant so audit streams and
	// blame attribution line up with wall-clock ingestion.
	JobShed
	// JobCancelled: an explicit cancel request (streaming ingestion)
	// withdrew the live Job. Its remaining tasks are withdrawn as by a
	// terminal failure, and jobs waiting on it fail with it; for
	// accounting the job counts under JobsFailed, with
	// Result.JobsCancelled recording the cause.
	JobCancelled
	// InvariantViolated: the runtime auditor caught the engine in an
	// inconsistent state (Violation); the offending node or task is
	// quarantined rather than allowed to keep computing garbage.
	InvariantViolated
	// TaskSpanClosed: one span of a task's timeline closed (Span; At is
	// Span.End). For every task of a completed job the spans are gapless
	// and non-overlapping over [job arrival, task completion]; the
	// attribution layer relies on this tiling.
	TaskSpanClosed
	// SnapshotTaken: the durability sink is about to capture the periodic
	// crash-recovery snapshot at the end of scheduling period N (see
	// Config.Durability); periods count from 1.
	SnapshotTaken
	// RecoveryStarted: a resumed run is about to roll forward from the
	// snapshot of scheduling period N. Fired once, by the harness that
	// restores the snapshot.
	RecoveryStarted
	// Replayed: a resumed run's roll-forward verified all N surviving
	// write-ahead-log records — the run has reached the crash point and
	// switches the log back to append mode.
	Replayed

	// NumEventKinds counts the kinds above.
	NumEventKinds
)

var eventKindNames = [NumEventKinds]string{
	"TaskStarted", "TaskPreempted", "TaskCompleted", "JobCompleted",
	"EpochStarted", "EpochEnded", "PreemptionConsidered", "DisorderDetected",
	"NodeFailed", "NodeRecovered", "TaskEvicted", "TaskRequeued",
	"TaskRetried", "TaskFailedTerminally", "SpeculationLaunched",
	"SpeculationWon", "SpeculationCancelled", "NodeBlacklisted",
	"SolverDegraded", "JobShed", "JobCancelled", "InvariantViolated",
	"TaskSpanClosed", "SnapshotTaken", "RecoveryStarted", "Replayed",
}

// String returns the kind's Go constant name.
func (k EventKind) String() string {
	if k < NumEventKinds {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one simulation lifecycle or decision event. Which fields
// beyond Kind and At carry data depends on Kind (see the EventKind
// constants); the rest are zero.
type Event struct {
	Kind EventKind
	// Requeue, Retry and Shed are the reasons of TaskRequeued,
	// TaskRetried and JobShed events.
	Requeue RequeueReason
	Retry   RetryReason
	Shed    ShedReason

	At units.Time
	// Task is the task the event is about; for TaskPreempted and
	// DisorderDetected it is the victim.
	Task *TaskState
	// Starter is the task that wanted the victim's slot.
	Starter *TaskState
	Job     *JobState
	Node    cluster.NodeID
	// Peer is the second node of a speculation event.
	Peer cluster.NodeID
	// N is the epoch, scheduling period, failed-attempt count or record
	// count, per kind.
	N int

	Decision    PreemptionDecision
	Degradation SolverDegradation
	Violation   InvariantViolation
	Span        TaskSpan
	View        *View
}

// Observer receives simulation lifecycle and decision events; attach one
// via Config.Observer to trace a run (debugging, visualization, custom
// metrics, audit logs). Observe runs synchronously inside the event
// loop — keep it cheap and do not mutate simulator state. Emitters test
// for a nil observer before building the Event, so unobserved runs pay
// one pointer test per event site.
type Observer interface {
	Observe(Event)
}

// Observers composes multiple observers; nil entries are skipped, so call
// sites can build the slice from optional components without filtering.
type Observers []Observer

// Observe implements Observer.
func (os Observers) Observe(ev Event) {
	for _, o := range os {
		if o != nil {
			o.Observe(ev)
		}
	}
}
