package sim

import (
	"math"

	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/eventq"
	"dsp/internal/units"
)

// This file is the engine's reactive-recovery tier (the paper's Section
// VI future work): failed execution attempts are charged against a
// per-task retry budget and re-admitted after an exponential backoff, a
// task that exhausts its budget fails its job cleanly instead of looping
// forever, and every failure feeds a per-node health score that decays
// over time and can blacklist chronically flaky nodes.

// DefaultRetryBudget is the number of failed attempts a task may absorb
// before failing terminally, when Config.RetryBudget is zero.
const DefaultRetryBudget = 10

// DefaultHealthHalfLife is the decay half-life of the per-node failure
// penalty when Config.HealthHalfLife is zero.
const DefaultHealthHalfLife = 10 * units.Minute

// TaskFaults injects transient per-attempt task failures: every
// execution burst fails with probability Rate at a point drawn uniformly
// inside the burst. Draws are hashed from (Seed, job, task, attempt), so
// they are reproducible and independent of event interleaving.
type TaskFaults struct {
	// Rate is the per-attempt failure probability in [0, 1].
	Rate float64
	// Seed drives the deterministic per-attempt draws.
	Seed int64
}

// retryBudget resolves the configured budget: 0 means DefaultRetryBudget,
// negative means unlimited (-1 sentinel).
func (e *Engine) retryBudget() int {
	switch {
	case e.cfg.RetryBudget == 0:
		return DefaultRetryBudget
	case e.cfg.RetryBudget < 0:
		return -1
	default:
		return e.cfg.RetryBudget
	}
}

// backoffDelay returns the wait before re-admitting attempt n (1-based):
// RetryBackoff doubling per failed attempt, zero when backoff is off.
func (e *Engine) backoffDelay(attempt int) units.Time {
	base := e.cfg.RetryBackoff
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 20 {
		shift = 20 // 2^20 ≈ 10^6× base; beyond this the job is dead anyway
	}
	return base << shift
}

// retryOrFail charges one failed attempt and either re-admits the task
// (immediately to Pending, or via Backoff when a delay is configured) or
// fails it terminally once the budget is gone. The caller has already
// detached the task from its slot and banked any retained progress.
func (e *Engine) retryOrFail(k cluster.NodeID, t *TaskState, now units.Time, reason RetryReason) {
	t.Attempts++
	t.Phase = Pending
	t.Node = -1
	t.Job.assigned--
	t.spanStart = now
	if budget := e.retryBudget(); budget >= 0 && t.Attempts > budget {
		t.Phase = Failed
		e.metrics.TerminalFailures++
		if o := e.cfg.Observer; o != nil {
			o.Observe(Event{Kind: TaskFailedTerminally, At: now, Task: t, Node: k})
		}
		e.failJob(t.Job, now)
		return
	}
	e.metrics.Retries++
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: TaskRetried, At: now, Task: t, Node: k, N: t.Attempts, Retry: reason})
	}
	delay := e.backoffDelay(t.Attempts)
	if delay <= 0 {
		return // already Pending; the next period re-places it
	}
	t.Phase = Backoff
	e.armRetry(t, e.q.Now()+delay)
}

// armRetry schedules the backoff expiry that re-admits t to Pending at
// absolute time at. Shared by retryOrFail and snapshot restore.
func (e *Engine) armRetry(t *TaskState, at units.Time) {
	t.retryEv = e.q.AtTag(at, taskTag(evRetry, t), eventq.Func(func(at units.Time) {
		t.hasRetryEv = false
		if t.Phase != Backoff {
			return
		}
		e.closeWaitSpan(t, at)
		t.Phase = Pending
		e.redispatch(at, t.Job)
	}))
	t.hasRetryEv = true
}

// redispatch offers one job's pending tasks to the scheduler outside the
// periodic cycle. A retry whose backoff expires mid-period would
// otherwise idle until the next offline tick — up to a full Period away,
// which for a late-stage failure can dominate the whole degradation.
// Backoff-then-retry means the task is actively resubmitted when the
// delay elapses; the RetryBackoff == 0 path keeps the passive
// wait-for-the-period behaviour.
func (e *Engine) redispatch(now units.Time, j *JobState) {
	if j.failed || j.shed || j.Arrival > now || j.assigned >= len(j.Tasks) || !j.Eligible() {
		return
	}
	assignments := e.cfg.Scheduler.Schedule(now, []*JobState{j}, e.view)
	for _, a := range assignments {
		e.applyAssignment(a, now)
	}
	for k := range e.nodes {
		e.tryFill(cluster.NodeID(k), now)
	}
}

// failJob terminates a job whose task failed terminally: every live task
// is withdrawn, in-flight work is written off, and jobs transitively
// waiting on this one fail too (they can never become eligible).
func (e *Engine) failJob(j *JobState, now units.Time) {
	if j.failed || j.shed || j.Done() {
		return
	}
	j.failed = true
	e.jobsRemaining--
	e.metrics.JobsFailed++
	for _, t := range j.Tasks {
		if t.backup != nil {
			e.cancelBackup(t.backup, now)
		}
		switch t.Phase {
		case Pending:
			t.Phase = Failed
		case Backoff:
			if t.hasRetryEv {
				e.q.Cancel(t.retryEv)
				t.hasRetryEv = false
			}
			t.Phase = Failed
		case Queued, Suspended:
			e.dequeue(t.Node, t)
			t.Phase = Failed
		case Running:
			node := t.Node
			ns := e.nodes[node]
			for i, r := range ns.running {
				if r == t {
					ns.running = append(ns.running[:i], ns.running[i+1:]...)
					break
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
			if t.blocked {
				e.metrics.BlockedSlotTime += now - t.effStart
				t.blocked = false
			} else if now > t.effStart {
				e.metrics.LostWork += now - t.effStart
			}
			t.Phase = Failed
			e.tryFill(node, now)
		case Done:
			e.metrics.TasksWasted++
		}
	}
	for _, other := range e.jobs {
		if other.failed || other.shed || other.Done() {
			continue
		}
		for _, p := range other.waitsFor {
			if p == j {
				e.failJob(other, now)
				break
			}
		}
	}
}

// addPenalty bumps a node's decayed failure penalty and blacklists it on
// the rising edge past the configured threshold.
func (e *Engine) addPenalty(k cluster.NodeID, amount float64, now units.Time) {
	ns := e.nodes[k]
	ns.penalty = ns.decayedPenalty(now, e.healthHalfLife()) + amount
	ns.penaltyAt = now
	if th := e.cfg.BlacklistThreshold; th > 0 && !ns.blacklisted && ns.penalty >= th {
		ns.blacklisted = true
		e.metrics.Blacklistings++
		if o := e.cfg.Observer; o != nil {
			o.Observe(Event{Kind: NodeBlacklisted, At: now, Node: k})
		}
	}
}

func (e *Engine) healthHalfLife() units.Time {
	if e.cfg.HealthHalfLife > 0 {
		return e.cfg.HealthHalfLife
	}
	return DefaultHealthHalfLife
}

// decayedPenalty returns the node's failure penalty as of now, halving
// every halfLife since the last bump.
func (ns *nodeState) decayedPenalty(now, halfLife units.Time) float64 {
	if ns.penalty == 0 {
		return 0
	}
	dt := now - ns.penaltyAt
	if dt <= 0 || halfLife <= 0 {
		return ns.penalty
	}
	return ns.penalty * math.Exp2(-dt.Seconds()/halfLife.Seconds())
}

// isBlacklisted reports whether the node is currently blacklisted,
// lazily clearing the flag once the penalty has decayed back under the
// threshold (the node may be re-blacklisted by later failures).
func (e *Engine) isBlacklisted(k cluster.NodeID, now units.Time) bool {
	th := e.cfg.BlacklistThreshold
	if th <= 0 {
		return false
	}
	ns := e.nodes[k]
	if !ns.blacklisted {
		return false
	}
	if ns.decayedPenalty(now, e.healthHalfLife()) < th {
		ns.blacklisted = false
		return false
	}
	return true
}

// taskFaults returns the active transient-fault model, or nil.
func (e *Engine) taskFaults() *TaskFaults {
	if e.cfg.Faults == nil {
		return nil
	}
	return e.cfg.Faults.Tasks
}

// armAttemptFault rolls the fate of a fresh execution burst: with
// probability Rate the burst is doomed at a point drawn uniformly inside
// it. Called from beginWork with the burst's span at current speed.
func (e *Engine) armAttemptFault(t *TaskState, workStart units.Time, workTime units.Time) {
	t.attemptFailAt = 0
	tf := e.taskFaults()
	if tf == nil || tf.Rate <= 0 {
		return
	}
	t.execIndex++
	p, frac := taskFaultDraw(tf.Seed, t.Task.Job, t.Task.ID, t.execIndex)
	if p >= tf.Rate {
		return
	}
	if workTime <= 0 || workTime == units.Forever {
		return
	}
	at := workStart + units.Time(frac*float64(workTime))
	if at <= workStart {
		at = workStart + 1
	}
	t.attemptFailAt = at
}

// scheduleAttempt arms the burst's next event: the planned transient
// failure if one lands before the completion, else the completion
// itself. Used everywhere a running burst is (re)scheduled so that a
// straggler re-pace cannot silently drop a planned fault.
func (e *Engine) scheduleAttempt(k cluster.NodeID, t *TaskState, finishAt, now units.Time) {
	if t.attemptFailAt > 0 && t.attemptFailAt < finishAt {
		at := units.Max(t.attemptFailAt, now)
		e.armTransientFail(k, t, at)
	} else {
		e.armComplete(k, t, finishAt)
	}
}

// armComplete schedules t's burst completion on node k at absolute time
// at. Shared by scheduleAttempt and snapshot restore.
func (e *Engine) armComplete(k cluster.NodeID, t *TaskState, at units.Time) {
	t.doneEv = e.q.AtTag(at, taskTag(evComplete, t), eventq.Func(func(at units.Time) {
		e.complete(k, t, at)
	}))
	t.hasDoneEv = true
}

// armTransientFail schedules t's burst to die transiently on node k at
// absolute time at. Shared by scheduleAttempt and snapshot restore.
func (e *Engine) armTransientFail(k cluster.NodeID, t *TaskState, at units.Time) {
	t.doneEv = e.q.AtTag(at, taskTag(evTransientFail, t), eventq.Func(func(at units.Time) {
		e.transientFail(k, t, at)
	}))
	t.hasDoneEv = true
}

// transientFail kills the current burst: progress rolls back to the last
// checkpoint (the fault loses uncheckpointed state, same as a crash),
// the node's health score takes a hit, and the attempt is charged
// against the retry budget.
func (e *Engine) transientFail(k cluster.NodeID, t *TaskState, now units.Time) {
	t.hasDoneEv = false
	if t.Phase != Running || t.blocked {
		return
	}
	ns := e.nodes[k]
	for i, r := range ns.running {
		if r == t {
			ns.running = append(ns.running[:i], ns.running[i+1:]...)
			break
		}
	}
	speed := e.speedOf(k)
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
	e.closeBurstSpans(t, k, now, CauseTaskFault, lost)
	t.resumePenalty = e.cfg.Checkpoint.ResumePenalty()
	t.attemptFailAt = 0
	e.metrics.TaskFaults++
	e.addPenalty(k, 1, now)
	e.retryOrFail(k, t, now, RetryTaskFault)
	e.tryFill(k, now)
}

// taskFaultDraw hashes (seed, job, task, attempt) into two uniform
// [0, 1) draws — the fail roll and the in-burst fault position — via
// splitmix64. Hashing (rather than a shared RNG stream) keeps the draws
// independent of event interleaving: the same attempt fails at the same
// relative point no matter what else the cluster is doing.
func taskFaultDraw(seed int64, job dag.JobID, task dag.TaskID, attempt int) (p, frac float64) {
	x := uint64(seed)
	x = splitmix64(x ^ 0x9e3779b97f4a7c15)
	x = splitmix64(x ^ uint64(job)*0xbf58476d1ce4e5b9)
	x = splitmix64(x ^ uint64(task)*0x94d049bb133111eb)
	x = splitmix64(x ^ uint64(attempt))
	a := splitmix64(x)
	b := splitmix64(a)
	return float64(a>>11) / (1 << 53), float64(b>>11) / (1 << 53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
