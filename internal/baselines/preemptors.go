package baselines

import (
	"dsp/internal/sim"
	"dsp/internal/units"
)

// Amoeba is the preemption policy of [20]: the running task that consumes
// the most resources — i.e. has the longest remaining time — has the
// lowest priority and is evicted first; a waiting task preempts it when
// the waiting task's remaining time is shorter. Amoeba checkpoints
// preempted tasks (configure the simulation with
// cluster.DefaultCheckpoint()). It neither considers task dependencies
// nor waiting time nor deadlines, so it causes dependency disorders and
// can starve long tasks.
type Amoeba struct{}

// Name implements sim.Preemptor.
func (Amoeba) Name() string { return "Amoeba" }

// Epoch implements sim.Preemptor.
func (Amoeba) Epoch(now units.Time, v *sim.View) []sim.Action {
	return matchEpoch(v, shorterStarterOrStop, func(buf []cand, speed float64, running, waiting []*sim.TaskState) ([]cand, int) {
		// Victims in descending live remaining time (most resources
		// first).
		for i, r := range running {
			rem := r.LiveRemainingTime(now, speed)
			c := keyed(r, i, rem)
			c.a = -rem
			buf = append(buf, c)
		}
		nv := len(buf)
		// Starters in ascending remaining time (smallest first), so the
		// first one that is not shorter than its victim ends the walk.
		for i, s := range waiting {
			rem := s.LiveRemainingTime(now, speed)
			c := keyed(s, i, rem)
			c.a = rem
			buf = append(buf, c)
		}
		return buf, nv
	})
}

// Natjam is the eviction policy of [21]: production jobs have priority
// over research jobs, so only waiting tasks of production jobs preempt,
// and only running tasks of research jobs are evicted. Evictions are
// triggered by production work *showing up* (Natjam makes room when a
// production job arrives, rather than continuously re-evaluating):
// a production task acts as a preemptor only in the first epoch after it
// entered the waiting queue and only if it has never run. The eviction
// order picks the research task using the most resources (longest
// remaining time) first and the latest deadline second. Natjam
// checkpoints evicted tasks. It ignores dependencies.
type Natjam struct{}

// Name implements sim.Preemptor.
func (Natjam) Name() string { return "Natjam" }

// Epoch implements sim.Preemptor.
func (Natjam) Epoch(now units.Time, v *sim.View) []sim.Action {
	arrivalWindow := now - v.Epoch()
	return matchEpoch(v, anyStarter, func(buf []cand, speed float64, running, waiting []*sim.TaskState) ([]cand, int) {
		// Only research tasks are evictable: most resources (longest
		// remaining time) first, latest deadline next.
		for i, r := range running {
			if !r.Job.Dag.Production {
				rem := r.LiveRemainingTime(now, speed)
				c := keyed(r, i, rem)
				c.a, c.b = -rem, -r.Deadline
				buf = append(buf, c)
			}
		}
		nv := len(buf)
		// Only freshly enqueued, never-run production tasks preempt, in
		// queue order; each takes one victim, so the first nv suffice.
		for i, s := range waiting {
			if len(buf) == 2*nv {
				break
			}
			if s.Job.Dag.Production && s.FirstStart < 0 && s.QueuedAt >= arrivalWindow {
				c := keyed(s, i, 0)
				c.a = units.Time(i)
				buf = append(buf, c)
			}
		}
		return buf, nv
	})
}

// SRPT is the decentralized preemptive policy of [22]: task priority is
// the linear combination of waiting time and remaining time, P = α·t^w −
// β·t^rem (α=0.5, β=1 in the paper's configuration), so shorter-remaining
// and longer-waiting tasks rank higher among the *waiting* tasks — the
// waiting term prevents starvation of long waiters in the dispatch
// order. The preemption test itself is the classic
// shortest-remaining-processing-time rule: a waiting task evicts the
// running task with the most remaining work when the waiter's remaining
// time is strictly shorter. (Letting the waiting term alone beat running
// tasks would, combined with SRPT's lack of checkpointing, re-preempt
// every runner each epoch once any waiter's t^w exceeds 2·t^rem, and no
// long task would ever finish.) SRPT has no checkpoint mechanism — run
// it with cluster.NoCheckpoint() so preempted tasks restart from scratch
// — and ignores dependencies and deadlines.
type SRPT struct {
	// Alpha and Beta are the waiting-time and remaining-time weights.
	Alpha, Beta float64
}

// NewSRPT returns SRPT with the paper's α=0.5, β=1.
func NewSRPT() *SRPT { return &SRPT{Alpha: 0.5, Beta: 1} }

// Name implements sim.Preemptor.
func (*SRPT) Name() string { return "SRPT" }

func (s *SRPT) priority(t *sim.TaskState, now units.Time, speed float64) float64 {
	return s.Alpha*t.WaitingTime(now).Seconds() - s.Beta*t.LiveRemainingTime(now, speed).Seconds()
}

// Epoch implements sim.Preemptor.
func (s *SRPT) Epoch(now units.Time, v *sim.View) []sim.Action {
	return matchEpoch(v, shorterStarter, func(buf []cand, speed float64, running, waiting []*sim.TaskState) ([]cand, int) {
		// Lowest priority evicted first.
		for i, r := range running {
			c := keyed(r, i, r.LiveRemainingTime(now, speed))
			c.p = s.priority(r, now, speed)
			buf = append(buf, c)
		}
		nv := len(buf)
		// Highest priority starts first, if it passes the classic SRPT
		// preemption test: strictly shorter remaining work than the
		// victim.
		for i, st := range waiting {
			c := keyed(st, i, st.LiveRemainingTime(now, speed))
			c.p = -s.priority(st, now, speed)
			buf = append(buf, c)
		}
		return buf, nv
	})
}
