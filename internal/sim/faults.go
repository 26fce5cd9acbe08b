package sim

import (
	"fmt"
	"math"
	"sort"

	"dsp/internal/cluster"
	"dsp/internal/eventq"
	"dsp/internal/units"
)

// The paper's future work (Section VI) names fault tolerance — handling
// node failures/crashes and stragglers — as the next extension of DSP.
// This file implements both as first-class simulation events:
//
//   - NodeFailure crashes a node at a point in time. Everything running
//     there is evicted (progress rolls back to the last checkpoint, as a
//     crash loses the uncheckpointed state) and everything assigned to
//     its queue returns to the Pending pool, so the next offline
//     scheduling period re-places the work on surviving nodes. An
//     optional recovery brings the node back.
//   - Straggler degrades a node's effective speed by a factor for a
//     window, re-pacing the tasks running there.
//   - TaskFaults (see resilience.go) kill individual execution attempts
//     with a configured probability.
//
// Crash evictions of *running* tasks are charged against the task's
// retry budget (resilience.go); queued tasks just return to Pending.

// NodeFailure describes one crash (and optional recovery).
type NodeFailure struct {
	Node cluster.NodeID
	// At is when the node fails.
	At units.Time
	// RecoverAfter is how long until the node returns; zero or negative
	// means it never does.
	RecoverAfter units.Time
}

// Straggler describes a transient slowdown of one node.
type Straggler struct {
	Node cluster.NodeID
	// At is when the slowdown begins.
	At units.Time
	// Factor scales the node's speed (e.g. 0.1 = 10× slower). Must be
	// positive and finite.
	Factor float64
	// Duration is how long the slowdown lasts; zero or negative means it
	// persists to the end of the run.
	Duration units.Time
}

// FaultPlan is the set of injected faults for a run. Plans are validated
// at engine setup (Validate); an invalid plan aborts the run instead of
// being silently truncated.
type FaultPlan struct {
	Failures   []NodeFailure
	Stragglers []Straggler
	// Tasks optionally injects transient per-attempt task failures.
	Tasks *TaskFaults
}

// Validate checks the plan against a cluster of the given size: node IDs
// in range, non-negative times, positive finite straggler factors, a
// probability-valued task-fault rate, and no overlapping failure windows
// on the same node (a node cannot crash while already down; windows may
// touch — recovery fires before a same-instant crash).
func (p *FaultPlan) Validate(nodes int) error {
	if p == nil {
		return nil
	}
	type window struct {
		at, end units.Time
		idx     int
	}
	byNode := make(map[cluster.NodeID][]window)
	for i, f := range p.Failures {
		if int(f.Node) < 0 || int(f.Node) >= nodes {
			return fmt.Errorf("sim: fault plan: failure %d: node %d out of range [0, %d)", i, f.Node, nodes)
		}
		if f.At < 0 {
			return fmt.Errorf("sim: fault plan: failure %d: negative time %v", i, f.At)
		}
		end := units.Forever
		if f.RecoverAfter > 0 {
			if f.At > units.Forever-f.RecoverAfter {
				return fmt.Errorf("sim: fault plan: failure %d: recovery time overflows", i)
			}
			end = f.At + f.RecoverAfter
		}
		byNode[f.Node] = append(byNode[f.Node], window{at: f.At, end: end, idx: i})
	}
	for node, ws := range byNode {
		sort.Slice(ws, func(a, b int) bool { return ws[a].at < ws[b].at })
		for i := 1; i < len(ws); i++ {
			if ws[i].at < ws[i-1].end {
				return fmt.Errorf("sim: fault plan: failures %d and %d overlap on node %d (down [%v, %v), next failure at %v)",
					ws[i-1].idx, ws[i].idx, node, ws[i-1].at, ws[i-1].end, ws[i].at)
			}
		}
	}
	for i, s := range p.Stragglers {
		if int(s.Node) < 0 || int(s.Node) >= nodes {
			return fmt.Errorf("sim: fault plan: straggler %d: node %d out of range [0, %d)", i, s.Node, nodes)
		}
		if s.At < 0 {
			return fmt.Errorf("sim: fault plan: straggler %d: negative time %v", i, s.At)
		}
		if !(s.Factor > 0) || math.IsInf(s.Factor, 0) {
			return fmt.Errorf("sim: fault plan: straggler %d: factor %v must be positive and finite", i, s.Factor)
		}
		if s.Duration > 0 && s.At > units.Forever-s.Duration {
			return fmt.Errorf("sim: fault plan: straggler %d: end time overflows", i)
		}
	}
	if t := p.Tasks; t != nil {
		if math.IsNaN(t.Rate) || t.Rate < 0 || t.Rate > 1 {
			return fmt.Errorf("sim: fault plan: task-fault rate %v outside [0, 1]", t.Rate)
		}
	}
	return nil
}

// installFaults schedules the plan's events. The plan must have been
// validated.
func (e *Engine) installFaults(plan *FaultPlan) {
	if plan == nil {
		return
	}
	for _, f := range plan.Failures {
		f := f
		e.q.AtTag(f.At, eventq.Tag{Kind: evNodeFail, A: int32(f.Node)}, eventq.Func(func(now units.Time) {
			e.failNode(f.Node, now)
		}))
		if f.RecoverAfter > 0 {
			e.q.AtTag(f.At+f.RecoverAfter, eventq.Tag{Kind: evNodeRecover, A: int32(f.Node)}, eventq.Func(func(now units.Time) {
				e.recoverNode(f.Node, now)
			}))
		}
	}
	for _, s := range plan.Stragglers {
		s := s
		e.q.AtTag(s.At, eventq.Tag{Kind: evSpeed, A: int32(s.Node), F: s.Factor}, eventq.Func(func(now units.Time) {
			e.setSpeedFactor(s.Node, s.Factor, now)
		}))
		if s.Duration > 0 {
			e.q.AtTag(s.At+s.Duration, eventq.Tag{Kind: evSpeed, A: int32(s.Node), F: 1}, eventq.Func(func(now units.Time) {
				e.setSpeedFactor(s.Node, 1, now)
			}))
		}
	}
}

// speedOf returns the node's current effective speed (profile speed ×
// straggler factor; zero while the node is down).
func (e *Engine) speedOf(k cluster.NodeID) float64 {
	ns := e.nodes[k]
	if ns.down {
		return 0
	}
	return e.cfg.Cluster.Speed(k) * ns.speedFactor
}

// failNode crashes a node: running tasks are evicted with crash
// semantics (state since the last checkpoint is lost; the checkpoint
// itself survives in shared storage) and charged one failed attempt;
// queued work returns to Pending for rescheduling elsewhere. Speculative
// copies hosted on the node are abandoned; their primaries elsewhere
// keep running. The node's health penalty takes a hit.
func (e *Engine) failNode(k cluster.NodeID, now units.Time) {
	ns := e.nodes[k]
	if ns.down {
		return
	}
	e.metrics.Failures++
	speed := e.speedOf(k)
	ns.down = true
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: NodeFailed, At: now, Node: k})
	}
	e.addPenalty(k, 1, now)

	spec := append([]*backupRun(nil), ns.spec...)
	for _, br := range spec {
		e.cancelBackup(br, now)
	}
	running := append([]*TaskState(nil), ns.running...)
	ns.running = ns.running[:0]
	for _, t := range running {
		if t.Job.failed {
			continue // failJob (via an earlier eviction) already detached it
		}
		if t.hasDoneEv {
			e.q.Cancel(t.doneEv)
			t.hasDoneEv = false
		}
		if t.hasBlockEv {
			e.q.Cancel(t.blockEv)
			t.hasBlockEv = false
		}
		if t.blocked {
			e.metrics.BlockedSlotTime += now - t.effStart
			e.emitSpan(t, SpanBlocked, CauseNone, k, t.spanStart, now)
			t.spanStart = now
			t.blocked = false
		} else {
			var lost units.Time
			if now > t.effStart {
				worked := now - t.effStart
				retained := e.cfg.Checkpoint.RetainedProgress(worked)
				t.doneMI += retained.Seconds() * speed
				if t.doneMI > t.Task.Size {
					t.doneMI = t.Task.Size
				}
				if worked > retained {
					lost = worked - retained
					e.metrics.LostWork += lost
				}
			}
			e.closeBurstSpans(t, k, now, CauseCrash, lost)
		}
		t.resumePenalty = e.cfg.Checkpoint.ResumePenalty()
		t.attemptFailAt = 0
		e.metrics.FailureEvictions++
		if o := e.cfg.Observer; o != nil {
			o.Observe(Event{Kind: TaskEvicted, At: now, Task: t, Node: k})
		}
		e.retryOrFail(k, t, now, RetryCrashEviction)
	}
	queued := append([]*TaskState(nil), ns.queue...)
	ns.queue = ns.queue[:0]
	for _, t := range queued {
		if t.Job.failed {
			continue
		}
		e.evictToPending(t, k, now)
	}
}

// evictToPending returns a queued task to the unassigned pool (no retry
// charge: the task never held the slot, so nothing of it was lost).
func (e *Engine) evictToPending(t *TaskState, k cluster.NodeID, now units.Time) {
	e.closeWaitSpan(t, now)
	t.Phase = Pending
	t.Node = -1
	t.Job.assigned--
	e.metrics.FailureEvictions++
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: TaskEvicted, At: now, Task: t, Node: k})
	}
}

// recoverNode brings a failed node back into service.
func (e *Engine) recoverNode(k cluster.NodeID, now units.Time) {
	ns := e.nodes[k]
	if !ns.down {
		return
	}
	ns.down = false
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: NodeRecovered, At: now, Node: k})
	}
	e.tryFill(k, now)
}

// setSpeedFactor re-paces a node: running tasks (and speculative copies)
// bank the progress they made at the old speed and their completions are
// rescheduled at the new one. A planned transient fault keeps its
// absolute time — scheduleAttempt re-arms it against the new finish.
func (e *Engine) setSpeedFactor(k cluster.NodeID, factor float64, now units.Time) {
	ns := e.nodes[k]
	if ns.down || ns.speedFactor == factor {
		ns.speedFactor = factor
		return
	}
	oldSpeed := e.speedOf(k)
	for _, t := range ns.running {
		if t.blocked || !t.hasDoneEv {
			continue
		}
		if now > t.effStart {
			t.doneMI += (now - t.effStart).Seconds() * oldSpeed
			if t.doneMI > t.Task.Size {
				t.doneMI = t.Task.Size
			}
		}
		// The re-pace banks the burst so far (nothing is lost) and, below,
		// restarts the burst at now with no penalty — close its spans here
		// so the next burst's spans open cleanly at now.
		e.closeBurstSpans(t, k, now, CauseNone, 0)
		e.q.Cancel(t.doneEv)
		t.hasDoneEv = false
	}
	for _, br := range ns.spec {
		if !br.hasEv {
			continue
		}
		if now > br.effStart {
			br.done += (now - br.effStart).Seconds() * oldSpeed
			br.effStart = now
		}
		e.q.Cancel(br.ev)
		br.hasEv = false
	}
	ns.speedFactor = factor
	newSpeed := e.speedOf(k)
	// Reschedule in deterministic order.
	resched := append([]*TaskState(nil), ns.running...)
	sort.Slice(resched, func(a, b int) bool { return lessTaskState(resched[a], resched[b]) })
	for _, t := range resched {
		if t.blocked {
			continue
		}
		t.effStart = now
		fin := units.Forever
		if newSpeed > 0 {
			fin = addTime(now, t.RemainingTime(newSpeed))
		}
		e.scheduleAttempt(k, t, fin, now)
	}
	respec := append([]*backupRun(nil), ns.spec...)
	sort.Slice(respec, func(a, b int) bool { return lessTaskState(respec[a].task, respec[b].task) })
	for _, br := range respec {
		start := units.Max(br.effStart, now)
		fin := units.Forever
		if newSpeed > 0 {
			fin = addTime(start, remainingTimeMI(br.task.Task.Size-br.base-br.done, newSpeed))
		}
		e.armBackupComplete(br, fin)
	}
}

// addTime sums a time and a duration, saturating at Forever.
func addTime(a, b units.Time) units.Time {
	if b >= units.Forever-a {
		return units.Forever
	}
	return a + b
}

func lessTaskState(a, b *TaskState) bool {
	if a.Task.Job != b.Task.Job {
		return a.Task.Job < b.Task.Job
	}
	return a.Task.ID < b.Task.ID
}
