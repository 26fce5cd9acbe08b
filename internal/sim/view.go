package sim

import (
	"dsp/internal/cluster"
	"dsp/internal/units"
)

// Assignment is one offline scheduling decision: run the task on Node,
// planned to start at Start. The engine enqueues the task in the node's
// waiting queue ordered by Start.
type Assignment struct {
	Task  *TaskState
	Node  cluster.NodeID
	Start units.Time
}

// Scheduler is the offline phase plug point, invoked every scheduling
// period with the jobs that have arrived and still have unassigned
// tasks. Implementations include the DSP ILP/list scheduler, Tetris (with
// and without dependency handling) and Aalo.
type Scheduler interface {
	Name() string
	Schedule(now units.Time, pending []*JobState, view *View) []Assignment
}

// Action is one preemption decision: suspend Victim (running on Node) and
// start Starter (waiting on Node) in its place. The remaining fields are
// optional decision metadata a policy may attach; the engine copies them
// into the PreemptionConsidered observer event so audit logs can answer
// "why was this task preempted".
type Action struct {
	Node    cluster.NodeID
	Victim  *TaskState
	Starter *TaskState

	// Urgent marks actions from the urgent pass (ε/τ trigger), reported
	// as the urgent-override verdict.
	Urgent bool
	// StarterPriority and VictimPriority are the policy's priorities at
	// decision time (zero for policies that do not compute them).
	StarterPriority float64
	VictimPriority  float64
	// PPThreshold is the normalized-priority bar ρ·P̄ the priority gain
	// had to clear (zero when the PP filter was off or not applicable).
	PPThreshold float64
}

// Preemptor is the online phase plug point, invoked every epoch.
// Implementations include DSP's Algorithm 1 (with and without the
// normalized-priority filter), Amoeba, Natjam and SRPT.
type Preemptor interface {
	Name() string
	Epoch(now units.Time, view *View) []Action
}

// View gives schedulers and preemptors read access to the simulator
// state.
type View struct {
	engine *Engine
}

// Cluster returns the simulated cluster.
func (v *View) Cluster() *cluster.Cluster { return v.engine.cfg.Cluster }

// Speed returns node k's current effective speed: g(k) scaled by any
// active straggler factor, and zero while the node is down. Schedulers
// and preemptors should use this rather than Cluster().Speed so their
// estimates track injected faults.
func (v *View) Speed(k cluster.NodeID) float64 { return v.engine.speedOf(k) }

// Queue returns node k's waiting tasks (queued and suspended) in
// ascending planned-start order. The slice is shared with the engine;
// callers must not mutate it.
func (v *View) Queue(k cluster.NodeID) []*TaskState { return v.engine.nodes[k].queue }

// Running returns the tasks currently occupying slots on node k, in
// start order. The slice is shared with the engine; callers must not
// mutate it.
func (v *View) Running(k cluster.NodeID) []*TaskState { return v.engine.nodes[k].running }

// Jobs returns every job the simulator knows about (arrived or not).
func (v *View) Jobs() []*JobState { return v.engine.jobs }

// BusyUntil estimates when node k next frees a slot if nothing is
// preempted: the earliest completion among running tasks, or now when a
// slot is already free.
func (v *View) BusyUntil(k cluster.NodeID, now units.Time) units.Time {
	ns := v.engine.nodes[k]
	if len(ns.running)+len(ns.spec) < ns.node.Slots {
		return now
	}
	earliest := units.Forever
	speed := v.Speed(k)
	for _, t := range ns.running {
		fin := now + t.LiveRemainingTime(now, speed)
		if fin < earliest {
			earliest = fin
		}
	}
	return earliest
}

// QueuedWork returns the total remaining work (in execution time at node
// k's speed) sitting in node k's queue.
func (v *View) QueuedWork(k cluster.NodeID, now units.Time) units.Time {
	ns := v.engine.nodes[k]
	speed := v.Speed(k)
	var total units.Time
	for _, t := range ns.queue {
		total += t.RemainingTime(speed)
	}
	return total
}

// EarliestFree estimates when a slot on node k will accept a new task,
// accounting for both running tasks and the queue drained at full slot
// parallelism. Schedulers use this for earliest-finish-time placement.
func (v *View) EarliestFree(k cluster.NodeID, now units.Time) units.Time {
	ns := v.engine.nodes[k]
	speed := v.Speed(k)
	slots := ns.node.Slots
	if slots <= 0 {
		return units.Forever
	}
	free := len(ns.running)+len(ns.spec) < slots && len(ns.queue) == 0
	if free {
		return now
	}
	// Total outstanding work divided across slots is a serviceable
	// estimate of when the backlog drains.
	var backlog units.Time
	for _, t := range ns.running {
		backlog += t.LiveRemainingTime(now, speed)
	}
	for _, t := range ns.queue {
		backlog += t.RemainingTime(speed)
	}
	return now + backlog/units.Time(slots)
}

// Epoch returns the configured preemption epoch.
func (v *View) Epoch() units.Time { return v.engine.cfg.Epoch }

// Now returns the current simulated time (the event being processed).
func (v *View) Now() units.Time { return v.engine.q.Now() }

// NodePenalty returns node k's decayed failure-health penalty as of now:
// +1 per crash or transient task fault, halving every HealthHalfLife.
// Fault-aware schedulers discount nodes with high penalties.
func (v *View) NodePenalty(k cluster.NodeID) float64 {
	e := v.engine
	return e.nodes[k].decayedPenalty(e.q.Now(), e.healthHalfLife())
}

// Blacklisted reports whether node k's penalty currently exceeds the
// configured blacklist threshold. Always false when blacklisting is
// disabled (Config.BlacklistThreshold = 0). Fault-aware schedulers must
// not place work on blacklisted nodes.
func (v *View) Blacklisted(k cluster.NodeID) bool {
	e := v.engine
	return e.isBlacklisted(k, e.q.Now())
}

// Observer returns the run's configured observer, or nil. Policies use it
// to report decisions that never become Actions — e.g. the DSP PP filter
// suppressing a preemption whose gain would not cover the context-switch
// cost. Callers must nil-check.
func (v *View) Observer() Observer { return v.engine.cfg.Observer }

// Checkpoint returns the active checkpoint policy.
func (v *View) Checkpoint() cluster.CheckpointPolicy { return v.engine.cfg.Checkpoint }

// ReportSolverDegraded records a downgrade along the scheduler's
// degradation ladder: the engine counts it in Result.SolverDegradations
// and forwards it to the observer. Schedulers call this (rather than the
// observer directly) so the count lands in the run's metrics even when
// no observer is attached.
func (v *View) ReportSolverDegraded(now units.Time, d SolverDegradation) {
	v.engine.metrics.SolverDegradations++
	if o := v.engine.cfg.Observer; o != nil {
		o.Observe(Event{Kind: SolverDegraded, At: now, Degradation: d})
	}
}
