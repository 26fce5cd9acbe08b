package sim

import (
	"fmt"

	"dsp/internal/cluster"
	"dsp/internal/units"
)

// The runtime invariant auditor (Config.AuditInvariants) promotes the
// package's test-only invariants into an opt-in production check: at
// every scheduling boundary (each epoch; each period when no preemptor
// runs) it re-derives the engine's core invariants from scratch and, on
// a violation, quarantines the offending node or task — the run degrades
// to fewer resources or a failed job instead of silently computing
// garbage. Every detection is counted in Result.InvariantViolations and
// emitted as an InvariantViolated observer event.

// auditInvariants re-checks engine state and quarantines offenders.
func (e *Engine) auditInvariants(now units.Time) {
	seen := make(map[*TaskState]cluster.NodeID)
	for k := range e.nodes {
		node := cluster.NodeID(k)
		ns := e.nodes[k]
		if occ := len(ns.running) + len(ns.spec); occ > ns.node.Slots {
			e.violate(now, InvariantViolation{
				Check: "slot-capacity", Node: node,
				Detail: fmt.Sprintf("%d occupants in %d slots", occ, ns.node.Slots),
			})
			e.quarantineNode(node, now)
			continue
		}
		if ns.down && len(ns.running) > 0 {
			e.violate(now, InvariantViolation{
				Check: "down-node-running", Node: node,
				Detail: fmt.Sprintf("%d tasks running on a down node", len(ns.running)),
			})
			for _, t := range append([]*TaskState(nil), ns.running...) {
				e.quarantineTask(t, now)
			}
			continue
		}
		running := append([]*TaskState(nil), ns.running...)
		for _, t := range running {
			if prev, dup := seen[t]; dup {
				e.violate(now, InvariantViolation{
					Check: "duplicate-task", Node: node, Task: t,
					Detail: fmt.Sprintf("also present on node %d", prev),
				})
				e.quarantineTask(t, now)
				continue
			}
			seen[t] = node
			switch {
			case t.Phase != Running:
				e.violate(now, InvariantViolation{
					Check: "phase-running", Node: node, Task: t,
					Detail: fmt.Sprintf("in running set with phase %v", t.Phase),
				})
				e.quarantineTask(t, now)
			case t.Node != node:
				e.violate(now, InvariantViolation{
					Check: "node-mismatch", Node: node, Task: t,
					Detail: fmt.Sprintf("running here but records node %d", t.Node),
				})
				e.quarantineTask(t, now)
			case !t.blocked && !t.DepsMet():
				e.violate(now, InvariantViolation{
					Check: "dependency-order", Node: node, Task: t,
					Detail: "executing with unfinished precedents",
				})
				e.quarantineTask(t, now)
			case t.doneMI > t.Task.Size+1e-6:
				e.violate(now, InvariantViolation{
					Check: "progress-overflow", Node: node, Task: t,
					Detail: fmt.Sprintf("done %.1f MI of %.1f", t.doneMI, t.Task.Size),
				})
				e.quarantineTask(t, now)
			}
		}
		queue := append([]*TaskState(nil), ns.queue...)
		var prevPlanned units.Time
		for i, t := range queue {
			if prev, dup := seen[t]; dup {
				e.violate(now, InvariantViolation{
					Check: "duplicate-task", Node: node, Task: t,
					Detail: fmt.Sprintf("also present on node %d", prev),
				})
				e.quarantineTask(t, now)
				continue
			}
			seen[t] = node
			switch {
			case t.Phase != Queued && t.Phase != Suspended:
				e.violate(now, InvariantViolation{
					Check: "phase-queued", Node: node, Task: t,
					Detail: fmt.Sprintf("in waiting queue with phase %v", t.Phase),
				})
				e.quarantineTask(t, now)
				continue
			case t.Node != node:
				e.violate(now, InvariantViolation{
					Check: "node-mismatch", Node: node, Task: t,
					Detail: fmt.Sprintf("queued here but records node %d", t.Node),
				})
				e.quarantineTask(t, now)
				continue
			}
			if i > 0 && t.PlannedStart < prevPlanned {
				e.violate(now, InvariantViolation{
					Check: "queue-order", Node: node, Task: t,
					Detail: fmt.Sprintf("planned start %v after an entry planned at %v", t.PlannedStart, prevPlanned),
				})
				e.quarantineTask(t, now)
				continue
			}
			prevPlanned = t.PlannedStart
		}
	}
}

// violate records one detection.
func (e *Engine) violate(now units.Time, v InvariantViolation) {
	e.metrics.InvariantViolations++
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: InvariantViolated, At: now, Violation: v})
	}
}

// quarantineNode takes a node whose bookkeeping cannot be trusted out of
// service for the rest of the run, with crash semantics: running work is
// evicted and charged a retry, queued work returns to Pending for
// re-placement elsewhere.
func (e *Engine) quarantineNode(k cluster.NodeID, now units.Time) {
	e.metrics.Quarantines++
	e.failNode(k, now)
}

// quarantineTask forcibly discards a task whose recorded state cannot be
// trusted and fails its job. The task's own fields may lie, so every
// node's running set and queue is scanned by identity; pending events
// are cancelled before the phase changes so a stale completion cannot
// fire on the corrupt task later.
func (e *Engine) quarantineTask(t *TaskState, now units.Time) {
	e.metrics.Quarantines++
	for k := range e.nodes {
		ns := e.nodes[k]
		for i, r := range ns.running {
			if r == t {
				ns.running = append(ns.running[:i], ns.running[i+1:]...)
				break
			}
		}
		for i, q := range ns.queue {
			if q == t {
				ns.queue = append(ns.queue[:i], ns.queue[i+1:]...)
				break
			}
		}
	}
	if t.hasDoneEv {
		e.q.Cancel(t.doneEv)
		t.hasDoneEv = false
	}
	if t.hasBlockEv {
		e.q.Cancel(t.blockEv)
		t.hasBlockEv = false
	}
	if t.hasRetryEv {
		e.q.Cancel(t.retryEv)
		t.hasRetryEv = false
	}
	if t.backup != nil {
		e.cancelBackup(t.backup, now)
	}
	t.blocked = false
	t.Phase = Failed
	e.failJob(t.Job, now)
	for k := range e.nodes {
		e.tryFill(cluster.NodeID(k), now)
	}
}
