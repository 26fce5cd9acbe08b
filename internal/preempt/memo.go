package preempt

import (
	"dsp/internal/prof"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// Memo is the epoch-persistent dependency-priority evaluator the DSP
// preemptor uses in place of a fresh Calculator every epoch. It computes
// exactly the same P_ij values as the recursive Calculator (the package
// property tests assert bit-for-bit equality) but restructures the work
// so the per-epoch cost is a flat, allocation-free array pass:
//
//   - Per job it caches a reverse-topological task order (children before
//     parents) keyed on the job's task count, so the order is derived
//     once per job, not once per epoch.
//   - Per job it caches the compacted live-edge list — each task's
//     not-yet-Done children — keyed on (len(Tasks), Remaining()). Task
//     completions are the only events that change which edges are live,
//     so jobs whose task states did not change since the last epoch skip
//     the edge re-derivation entirely and reuse the compact arrays.
//   - The numeric pass (leaf terms drift with simulated time, so values
//     must be re-evaluated every epoch) iterates the cached order and
//     edge lists with slice indexing — no recursion, no map lookups, and
//     no steady-state allocation.
//
// Evaluation is lazy per job: a job pays the pass only in epochs where at
// least one of its tasks' priorities is actually demanded.
//
// A Memo belongs to one preemptor instance and is not safe for concurrent
// use, matching the engine's single-threaded epoch loop.
type Memo struct {
	jobs  map[*sim.JobState]*jobMemo
	epoch uint64 // bumped by BeginEpoch; stamps per-job evaluations

	// Per-epoch evaluation context (set by BeginEpoch).
	p    Params
	now  units.Time
	view SpeedSource
	mean float64

	// tm is the owning preemptor's phase profiler (nil when the run is
	// not profiled): evaluate charges memo-eval, rebuilds memo-rebuild.
	tm *prof.Timer
}

// jobMemo is the cached evaluation state for one job.
type jobMemo struct {
	// order is the reverse-topological task order (every task appears
	// after all of its children), valid while len(Tasks) == taskLen.
	order   []int32
	taskLen int

	// edgeStart/edgeChild compact the live (child not Done) adjacency:
	// task id's live children are edgeChild[edgeStart[id]:edgeStart[id+1]],
	// in the DAG's Children order so sums accumulate in the same sequence
	// as the recursive reference. Valid while the job's (len(Tasks),
	// live-task count) pair equals (taskLen, live) — task completion is
	// the only event that removes a live edge, and it always decrements
	// the live count.
	edgeStart []int32
	edgeChild []int32
	live      int
	structOK  bool

	// prio holds the evaluated priorities for epoch stamp.
	prio  []float64
	stamp uint64
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{jobs: make(map[*sim.JobState]*jobMemo)}
}

// BeginEpoch starts a new evaluation round at time now: previously
// evaluated priorities go stale (leaf terms move with the clock) while
// the cached per-job structures stay valid until their jobs change.
func (m *Memo) BeginEpoch(p Params, now units.Time, v SpeedSource) {
	m.epoch++
	m.p = p
	m.now = now
	m.view = v
	m.mean = v.Cluster().MeanSpeed()
	// Drop cache entries for jobs that stopped demanding priorities long
	// ago (settled, or retired by a streaming engine) — without this the
	// map pins every job a long-running daemon ever saw. Amortized: the
	// sweep runs every 64 epochs and evicts entries 64+ epochs stale.
	if m.epoch%64 == 0 {
		for j, jm := range m.jobs {
			if jm.stamp+64 <= m.epoch {
				delete(m.jobs, j)
			}
		}
	}
}

// Priority returns P for t at the BeginEpoch evaluation time, evaluating
// t's whole job on first demand in the current epoch.
func (m *Memo) Priority(t *sim.TaskState) float64 {
	jm := m.jobs[t.Job]
	if jm == nil {
		jm = &jobMemo{}
		m.jobs[t.Job] = jm
	}
	if jm.stamp != m.epoch {
		m.evaluate(jm, t.Job)
		jm.stamp = m.epoch
	}
	return jm.prio[t.Task.ID]
}

// evaluate refreshes jm for job j: structural caches are revalidated (and
// rebuilt only if the job changed), then every task's priority is
// recomputed in one bottom-up pass.
func (m *Memo) evaluate(jm *jobMemo, j *sim.JobState) {
	m.tm.Enter(prof.PhaseMemoEval)
	n := len(j.Tasks)
	if jm.taskLen != n {
		m.tm.Enter(prof.PhaseMemoRebuild)
		m.rebuildOrder(jm, j)
		m.tm.Exit()
	}
	flat := m.p.FlatPriority
	if !flat {
		live := 0
		for _, t := range j.Tasks {
			if t.Phase != sim.Done {
				live++
			}
		}
		if !jm.structOK || jm.live != live {
			m.tm.Enter(prof.PhaseMemoRebuild)
			m.rebuildLiveEdges(jm, j, live)
			m.tm.Exit()
		}
	}
	if cap(jm.prio) < n {
		jm.prio = make([]float64, n)
	}
	jm.prio = jm.prio[:n]

	gamma1 := m.p.Gamma + 1
	for _, id := range jm.order {
		t := j.Tasks[id]
		var s, e int32
		if !flat {
			s, e = jm.edgeStart[id], jm.edgeStart[id+1]
		}
		if s == e {
			speed := m.mean
			if t.Node >= 0 {
				speed = m.view.Speed(t.Node)
			}
			jm.prio[id] = leafPriority(m.p, m.now, speed, t)
			continue
		}
		var p float64
		for _, ch := range jm.edgeChild[s:e] {
			p += gamma1 * jm.prio[ch]
		}
		jm.prio[id] = p
	}
	m.tm.Exit()
}

// rebuildOrder derives the reverse-topological order (children before
// parents) by Kahn's algorithm on out-degrees, ties broken by ascending
// task ID for determinism. The engine validates every DAG as acyclic
// before the run, so the order always covers all tasks.
func (m *Memo) rebuildOrder(jm *jobMemo, j *sim.JobState) {
	n := len(j.Tasks)
	if cap(jm.order) < n {
		jm.order = make([]int32, 0, n)
	}
	jm.order = jm.order[:0]
	outdeg := make([]int32, n)
	for id := 0; id < n; id++ {
		outdeg[id] = int32(len(j.Dag.Children(j.Tasks[id].Task.ID)))
		if outdeg[id] == 0 {
			jm.order = append(jm.order, int32(id))
		}
	}
	for i := 0; i < len(jm.order); i++ {
		id := jm.order[i]
		for _, p := range j.Dag.Parents(j.Tasks[id].Task.ID) {
			outdeg[p]--
			if outdeg[p] == 0 {
				jm.order = append(jm.order, int32(p))
			}
		}
	}
	jm.taskLen = n
	jm.structOK = false
}

// rebuildLiveEdges recompacts each task's not-yet-Done children into the
// flat edge arrays, preserving the DAG's Children iteration order.
func (m *Memo) rebuildLiveEdges(jm *jobMemo, j *sim.JobState, live int) {
	n := len(j.Tasks)
	if cap(jm.edgeStart) < n+1 {
		jm.edgeStart = make([]int32, n+1)
	}
	jm.edgeStart = jm.edgeStart[:n+1]
	jm.edgeChild = jm.edgeChild[:0]
	for id := 0; id < n; id++ {
		jm.edgeStart[id] = int32(len(jm.edgeChild))
		for _, ch := range j.Dag.Children(j.Tasks[id].Task.ID) {
			if j.Tasks[ch].Phase != sim.Done {
				jm.edgeChild = append(jm.edgeChild, int32(ch))
			}
		}
	}
	jm.edgeStart[n] = int32(len(jm.edgeChild))
	jm.live = live
	jm.structOK = true
}
