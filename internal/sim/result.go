package sim

import (
	"fmt"

	"dsp/internal/dag"
	"dsp/internal/units"
)

// JobRecord summarizes one job's outcome, for per-job analyses such as
// fairness indices over slowdowns.
type JobRecord struct {
	Job     dag.JobID
	Arrival units.Time
	DoneAt  units.Time
	// FirstStart is when the job's first task began running.
	FirstStart units.Time
	// Ideal is the job's lower-bound duration: its critical path at the
	// cluster's mean speed.
	Ideal units.Time
	// Slowdown is (DoneAt−Arrival)/Ideal (≥ 1 in practice).
	Slowdown    float64
	MetDeadline bool
	// AvgTaskQueueWait is the mean, over the job's tasks, of total time
	// spent in waiting queues (including re-waits after preemptions).
	AvgTaskQueueWait units.Time
}

// Result holds the metrics of one simulation run — the quantities the
// paper's Figures 5–8 plot.
type Result struct {
	// Makespan is the span from the first job arrival to the last task
	// completion (Figures 5, 8a).
	Makespan units.Time
	// TasksCompleted is the total number of finished tasks.
	TasksCompleted int
	// TaskThroughputPerMs is tasks completed per millisecond of makespan
	// (Figures 6b, 7b, 8b).
	TaskThroughputPerMs float64
	// JobsCompleted and JobsMetDeadline count finished jobs and those
	// that finished within their deadline.
	JobsCompleted   int
	JobsMetDeadline int
	// JobThroughputPerMin is deadline-meeting jobs per minute, the
	// paper's definition of throughput in Section III.
	JobThroughputPerMin float64
	// AvgJobWait is the mean time from job submission to its first task
	// start.
	AvgJobWait units.Time
	// AvgJobQueueing is the mean time jobs spent not executing: flow
	// time (completion − arrival) minus the job's critical-path ideal,
	// clamped at zero per job.
	AvgJobQueueing units.Time
	// AvgJobWaiting is the paper's Figure 6(c)/7(c) metric: the mean,
	// over jobs, of the per-job average task queue-residence time —
	// every second a task sits in a waiting queue counts, including the
	// re-waiting a preempted task endures before resuming, so preemption
	// churn and disorder waste inflate it directly.
	AvgJobWaiting units.Time
	// AvgTaskWait is the mean time tasks spent ready-but-waiting before
	// their first start.
	AvgTaskWait units.Time
	// Preemptions counts task suspensions (Figures 6d, 7d).
	Preemptions int
	// Disorders counts preemption decisions that started (or tried to
	// start) a task before its precedents finished (Figures 6a, 7a).
	Disorders int
	// TaskDeadlineMisses counts tasks finishing after their derived
	// deadline.
	TaskDeadlineMisses int
	// BlindStarts counts tasks dispatched into slots before their
	// precedents finished (dependency-blind schedulers only), and
	// BlockedSlotTime is the total slot occupancy those tasks wasted.
	BlindStarts     int
	BlockedSlotTime units.Time
	// Failures counts injected node crashes; FailureEvictions counts
	// task evictions (running or queued) those crashes caused.
	Failures         int
	FailureEvictions int
	// LocalityHits/Misses count tasks with a preferred (data-holding)
	// node that first ran on it / elsewhere.
	LocalityHits   int
	LocalityMisses int
	// TaskFaults counts injected transient task-attempt failures.
	TaskFaults int
	// Retries counts failed attempts (transient faults and crash
	// evictions of running tasks) re-admitted under the retry budget.
	Retries int
	// TerminalFailures counts tasks that exhausted their retry budget;
	// JobsFailed counts jobs terminated by them (directly or through a
	// failed prerequisite job).
	TerminalFailures int
	JobsFailed       int
	// TasksWasted counts tasks that completed but belong to jobs that
	// later failed — work that produced no job-level output.
	TasksWasted int
	// GoodputPerMs is completed tasks of *successful* jobs per
	// millisecond of makespan (TaskThroughputPerMs minus wasted work).
	GoodputPerMs float64
	// Blacklistings counts rising-edge node blacklist events.
	Blacklistings int
	// Speculations counts backup copies launched; SpeculationWins those
	// that beat the primary; SpeculationCancels those abandoned.
	Speculations       int
	SpeculationWins    int
	SpeculationCancels int
	// SpeculativeWaste is slot time burned by losing copies (cancelled
	// backups, and primaries whose backup won).
	SpeculativeWaste units.Time
	// LostWork is execution time destroyed by faults: progress past the
	// last checkpoint at crash/fault time, plus the running burst of
	// tasks killed when their job failed.
	LostWork units.Time
	// JobsShed counts jobs rejected by admission control — load the
	// system declined at the door rather than missed (see Admission).
	JobsShed int
	// JobsCancelled counts jobs withdrawn by explicit cancel requests
	// (streaming ingestion). Cancelled jobs also count under JobsFailed —
	// their live tasks are withdrawn exactly like a terminal failure's —
	// so this is a cause breakdown, not an additional outcome class.
	JobsCancelled int
	// PeakPendingTasks is the high-water mark of the admitted-but-
	// unassigned task backlog, sampled at arrivals and period boundaries.
	// Bounded admission keeps it near Admission.MaxPendingTasks no matter
	// the overload.
	PeakPendingTasks int
	// SolverDegradations counts downgrades along the scheduler's
	// degradation ladder (SolverDegraded events).
	SolverDegradations int
	// InvariantViolations counts runtime-auditor detections, and
	// Quarantines the nodes and tasks it isolated in response (see
	// Config.AuditInvariants).
	InvariantViolations int
	Quarantines         int
	// Jobs records each completed job's outcome, in completion order.
	Jobs []JobRecord

	totalJobWait      units.Time
	jobWaitSamples    int
	totalTaskWait     units.Time
	taskWaitSamples   int
	totalJobQueueWait units.Time
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf(
		"makespan=%v tasks=%d thr=%.3f tasks/ms jobs=%d met=%d wait=%v preempt=%d disorder=%d",
		r.Makespan, r.TasksCompleted, r.TaskThroughputPerMs,
		r.JobsCompleted, r.JobsMetDeadline, r.AvgJobWait, r.Preemptions, r.Disorders)
}
