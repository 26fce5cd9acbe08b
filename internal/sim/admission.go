package sim

import (
	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/units"
)

// Admission is the engine's overload valve. Without it, every arriving
// job joins the pending pool and queues grow without bound when arrivals
// outpace the cluster — the paper's workload already oversubscribes it
// ~4×. With it, jobs that provably cannot help (deadline unreachable) or
// that would push the backlog past a bound are shed at arrival: counted
// as shed, never as failures or deadline misses, and never occupying
// slots that admitted work needs.
type Admission struct {
	// MaxPendingTasks bounds the cluster-wide backlog of admitted-but-
	// unassigned tasks. A job whose arrival pushes the backlog past the
	// bound is shed. 0 = unbounded.
	MaxPendingTasks int
	// ShedInfeasible sheds jobs whose deadline is unreachable at
	// arrival. Two tests apply: a certain-loser bound (the critical path
	// alone, executed back-to-back on the fastest node, finishes past
	// the deadline — ignores queueing entirely), and a backlog-aware
	// estimate (the cluster's outstanding work drained at full service
	// rate delays the job's critical path past the deadline). The second
	// is an estimate, not a proof — but jobs it rejects would otherwise
	// occupy slots for work that almost surely completes late, dragging
	// admitted jobs past their own deadlines with it.
	ShedInfeasible bool
	// Margin hedges the backlog-aware estimate's pessimism (it assumes
	// the whole backlog drains ahead of the new job, which concurrent
	// scheduling rarely makes true): the estimate sheds only when the
	// projected finish exceeds Margin × deadline. ≤1 (including unset)
	// means no hedge. The certain-loser bound ignores Margin — it is a
	// proof, not an estimate.
	Margin float64
}

// admitJob is the job-arrival decision: the job either joins the pending
// pool (no-op — arrivedPending picks it up) or is shed.
func (e *Engine) admitJob(j *JobState, now units.Time) {
	ad := e.cfg.Admission
	if ad == nil || j.failed || j.shed {
		e.notePendingPeak(now)
		return
	}
	if ad.ShedInfeasible && j.Deadline > 0 {
		if fastest := e.fastestNominalSpeed(); fastest > 0 {
			exec := func(id dag.TaskID) float64 { return j.Dag.Task(id).Size / fastest }
			if _, cp, err := j.Dag.CriticalPath(exec); err == nil {
				if addTime(now, units.FromSeconds(cp)) > j.Deadline {
					e.shedJob(j, j.Arrival, ShedDeadlineInfeasible)
					return
				}
				margin := ad.Margin
				if margin < 1 {
					margin = 1
				}
				if rate := e.serviceRateMIPS(); rate > 0 {
					delay := e.outstandingWorkMI(now, j) / rate
					est := addTime(now, units.FromSeconds(cp+delay))
					budget := addTime(j.Arrival, units.Time(margin*float64(j.Deadline-j.Arrival)))
					if est > budget {
						e.shedJob(j, j.Arrival, ShedDeadlineInfeasible)
						return
					}
				}
			}
		}
	}
	if ad.MaxPendingTasks > 0 && e.pendingBacklog(now) > ad.MaxPendingTasks {
		// The backlog already includes this job's tasks (it has arrived).
		e.shedJob(j, j.Arrival, ShedQueueFull)
		return
	}
	e.notePendingPeak(now)
}

// shedJob rejects a job at admission: it never runs, its tasks are
// terminally parked, and jobs waiting on it — which can now never become
// eligible — are shed with it. eventAt is the timestamp the JobShed
// observer event carries: the arrival stamp of the job whose admission
// decision triggered the shed. In batch mode the decision runs inside
// the arrival event, so eventAt equals the decision time; under
// streaming ingestion the decision runs at the period boundary that
// drained the job, and eventAt keeps the audit stream and blame
// attribution aligned with wall-clock ingestion. Dependency-cascade
// sheds inherit the triggering decision's eventAt unchanged: the whole
// cascade is one decision.
func (e *Engine) shedJob(j *JobState, eventAt units.Time, reason ShedReason) {
	if j.failed || j.shed || j.Done() {
		return
	}
	j.shed = true
	e.jobsRemaining--
	e.metrics.JobsShed++
	// Shed happens at arrival, before any task was assigned; park the
	// tasks so stray references cannot resurrect them.
	for _, t := range j.Tasks {
		t.Phase = Failed
	}
	if o := e.cfg.Observer; o != nil {
		o.Observe(Event{Kind: JobShed, At: eventAt, Job: j, Shed: reason})
	}
	for _, other := range e.jobs {
		if other.failed || other.shed || other.Done() {
			continue
		}
		for _, p := range other.waitsFor {
			if p == j {
				e.shedJob(other, eventAt, ShedDependency)
				break
			}
		}
	}
}

// pendingBacklog counts admitted-but-unassigned tasks across arrived
// live jobs — the quantity bounded admission holds down.
func (e *Engine) pendingBacklog(now units.Time) int {
	n := 0
	for _, j := range e.jobs {
		if j.Arrival > now || j.failed || j.shed || j.Done() {
			continue
		}
		if d := len(j.Tasks) - j.assigned; d > 0 {
			n += d
		}
	}
	return n
}

// notePendingPeak samples the backlog high-water mark.
func (e *Engine) notePendingPeak(now units.Time) {
	if b := e.pendingBacklog(now); b > e.metrics.PeakPendingTasks {
		e.metrics.PeakPendingTasks = b
	}
}

// fastestNominalSpeed is the best speed any node offers at full health —
// the optimistic bound the infeasibility check needs.
func (e *Engine) fastestNominalSpeed() float64 {
	best := 0.0
	c := e.cfg.Cluster
	for k := 0; k < c.Len(); k++ {
		if s := c.Speed(cluster.NodeID(k)); s > best {
			best = s
		}
	}
	return best
}

// serviceRateMIPS is the cluster's aggregate nominal service rate:
// Σ_k speed_k × slots_k.
func (e *Engine) serviceRateMIPS() float64 {
	rate := 0.0
	c := e.cfg.Cluster
	for k := 0; k < c.Len(); k++ {
		rate += c.Speed(cluster.NodeID(k)) * float64(c.Node(cluster.NodeID(k)).Slots)
	}
	return rate
}

// outstandingWorkMI estimates the unfinished work (MI) already admitted
// ahead of job j — the queueing term of the infeasibility estimate.
func (e *Engine) outstandingWorkMI(now units.Time, j *JobState) float64 {
	var total float64
	for _, other := range e.jobs {
		if other == j || other.Arrival > now || other.failed || other.shed || other.Done() {
			continue
		}
		for _, t := range other.Tasks {
			if t.Phase == Done {
				continue
			}
			if rem := t.Task.Size - t.doneMI; rem > 0 {
				total += rem
			}
		}
	}
	return total
}
