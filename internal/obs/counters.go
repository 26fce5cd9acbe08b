package obs

import (
	"fmt"
	"strings"
	"sync/atomic"

	"dsp/internal/sim"
)

// Counters is an always-cheap event tally: one atomic per event class,
// no allocation per event, safe to share across concurrently running
// simulations (the experiment harness may fan out runs; `go test -race`
// covers this in CI).
type Counters struct {
	TaskStarts      atomic.Int64
	TaskCompletions atomic.Int64
	TaskPreemptions atomic.Int64
	JobCompletions  atomic.Int64
	Epochs          atomic.Int64

	// Decision verdict tallies; Accepted+UrgentOverrides equals the
	// engine's Result.Preemptions, Disorders its Result.Disorders.
	Considered      atomic.Int64
	Accepted        atomic.Int64
	SuppressedByPP  atomic.Int64
	UrgentOverrides atomic.Int64
	Disorders       atomic.Int64

	NodeFailures   atomic.Int64
	NodeRecoveries atomic.Int64
	Evictions      atomic.Int64
	Requeues       atomic.Int64

	// Resilience tallies: retry/terminal-failure outcomes, speculative
	// copies, and health blacklistings.
	Retries          atomic.Int64
	TerminalFailures atomic.Int64
	SpecLaunches     atomic.Int64
	SpecWins         atomic.Int64
	SpecCancels      atomic.Int64
	Blacklistings    atomic.Int64

	// Overload tallies: scheduler degradation-ladder downgrades,
	// admission-control sheddings, explicit job cancellations (streaming
	// ingestion), and invariant-auditor detections.
	SolverDegradations  atomic.Int64
	JobSheds            atomic.Int64
	JobCancellations    atomic.Int64
	InvariantViolations atomic.Int64

	// Durability tallies: periodic crash-recovery snapshots, resumed-run
	// recoveries, and completed write-ahead-log replays.
	Snapshots  atomic.Int64
	Recoveries atomic.Int64
	Replays    atomic.Int64
}

// NewCounters returns a zeroed registry.
func NewCounters() *Counters { return &Counters{} }

// Observe implements sim.Observer.
func (c *Counters) Observe(ev sim.Event) {
	switch ev.Kind {
	case sim.TaskStarted:
		c.TaskStarts.Add(1)
	case sim.TaskPreempted:
		c.TaskPreemptions.Add(1)
	case sim.TaskCompleted:
		c.TaskCompletions.Add(1)
	case sim.JobCompleted:
		c.JobCompletions.Add(1)
	case sim.EpochStarted:
		c.Epochs.Add(1)
	case sim.PreemptionConsidered:
		c.Considered.Add(1)
		switch ev.Decision.Verdict {
		case sim.VerdictAccepted:
			c.Accepted.Add(1)
		case sim.VerdictSuppressedByPP:
			c.SuppressedByPP.Add(1)
		case sim.VerdictUrgentOverride:
			c.UrgentOverrides.Add(1)
		case sim.VerdictDisorder:
			c.Disorders.Add(1)
		}
	case sim.NodeFailed:
		c.NodeFailures.Add(1)
	case sim.NodeRecovered:
		c.NodeRecoveries.Add(1)
	case sim.TaskEvicted:
		c.Evictions.Add(1)
	case sim.TaskRequeued:
		c.Requeues.Add(1)
	case sim.TaskRetried:
		c.Retries.Add(1)
	case sim.TaskFailedTerminally:
		c.TerminalFailures.Add(1)
	case sim.SpeculationLaunched:
		c.SpecLaunches.Add(1)
	case sim.SpeculationWon:
		c.SpecWins.Add(1)
	case sim.SpeculationCancelled:
		c.SpecCancels.Add(1)
	case sim.NodeBlacklisted:
		c.Blacklistings.Add(1)
	case sim.SolverDegraded:
		c.SolverDegradations.Add(1)
	case sim.JobShed:
		c.JobSheds.Add(1)
	case sim.JobCancelled:
		c.JobCancellations.Add(1)
	case sim.InvariantViolated:
		c.InvariantViolations.Add(1)
	case sim.SnapshotTaken:
		c.Snapshots.Add(1)
	case sim.RecoveryStarted:
		c.Recoveries.Add(1)
	case sim.Replayed:
		c.Replays.Add(1)
	}
}

// Counter is one named tally in a snapshot.
type Counter struct {
	Name  string
	Value int64
}

// Snapshot returns the current tallies in a fixed order.
func (c *Counters) Snapshot() []Counter {
	return []Counter{
		{"task-starts", c.TaskStarts.Load()},
		{"task-completions", c.TaskCompletions.Load()},
		{"task-preemptions", c.TaskPreemptions.Load()},
		{"job-completions", c.JobCompletions.Load()},
		{"epochs", c.Epochs.Load()},
		{"decisions-considered", c.Considered.Load()},
		{"decisions-accepted", c.Accepted.Load()},
		{"decisions-suppressed-by-pp", c.SuppressedByPP.Load()},
		{"decisions-urgent-override", c.UrgentOverrides.Load()},
		{"decisions-disorder", c.Disorders.Load()},
		{"node-failures", c.NodeFailures.Load()},
		{"node-recoveries", c.NodeRecoveries.Load()},
		{"task-evictions", c.Evictions.Load()},
		{"task-requeues", c.Requeues.Load()},
		{"task-retries", c.Retries.Load()},
		{"task-terminal-failures", c.TerminalFailures.Load()},
		{"speculations-launched", c.SpecLaunches.Load()},
		{"speculations-won", c.SpecWins.Load()},
		{"speculations-cancelled", c.SpecCancels.Load()},
		{"node-blacklistings", c.Blacklistings.Load()},
		{"solver-degradations", c.SolverDegradations.Load()},
		{"jobs-shed", c.JobSheds.Load()},
		{"job-cancellations", c.JobCancellations.Load()},
		{"invariant-violations", c.InvariantViolations.Load()},
		{"snapshots-taken", c.Snapshots.Load()},
		{"recoveries-started", c.Recoveries.Load()},
		{"wal-replays", c.Replays.Load()},
	}
}

// String renders the snapshot as aligned text, one counter per line.
func (c *Counters) String() string {
	var b strings.Builder
	for _, ct := range c.Snapshot() {
		fmt.Fprintf(&b, "%-28s %d\n", ct.Name, ct.Value)
	}
	return b.String()
}
