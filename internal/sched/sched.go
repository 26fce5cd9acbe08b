// Package sched implements the offline phase of DSP (Section III of the
// paper): the periodic dependency-aware scheduler that derives a target
// node and start time for every task, minimizing makespan subject to
// dependency and deadline constraints.
//
// Two interchangeable engines implement the derivation:
//
//   - ILP: the paper's integer-linear-programming formulation
//     (Equations 3–11), built with assignment binaries x_{ij,k}, ordering
//     binaries y_{ij,uv,k} linearized with big-M disjunctive constraints,
//     and solved exactly with the pure-Go branch-and-bound in
//     internal/lp. Exact solving is exponential, so this engine is used
//     for small instances only.
//   - List: a dependency-aware list scheduler that solves no LP: tasks
//     are ranked by a dependency score (descendants weighted by level, as
//     in the priority of Section IV-A) plus their bottom level, then
//     placed earliest-finish-time-first onto node slots, respecting
//     precedence. It stands in for the paper's LP relax-and-round step.
//
// The DSP scheduler picks automatically: ILP when the instance fits
// within ILPTaskLimit tasks and ILPNodeLimit nodes, the list engine
// otherwise. The paper's testbeds, RealCluster(50) and EC2(30), exceed
// ILPNodeLimit, so at paper scale every period runs the list engine.
package sched

import (
	"dsp/internal/dag"
	"dsp/internal/prof"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// Mode selects the offline engine.
type Mode int

// Scheduler engine modes.
const (
	// Auto uses ILP for small instances and the list engine otherwise.
	Auto Mode = iota
	// ILPOnly always builds and solves the ILP.
	ILPOnly
	// ListOnly always uses the list heuristic.
	ListOnly
)

// DefaultILPNodeBudget is the branch-and-bound node budget of an exact
// solve when DSP.ILPNodeBudget is zero.
const DefaultILPNodeBudget = 20000

// DSP is the dependency-aware offline scheduler.
type DSP struct {
	// Mode selects between the exact ILP and the list heuristic.
	Mode Mode
	// ILPTaskLimit is the largest pending-task count solved exactly in
	// Auto mode.
	ILPTaskLimit int
	// ILPNodeLimit caps the number of (node × slot) virtual machines
	// offered to the ILP.
	ILPNodeLimit int
	// ILPNodeBudget caps branch-and-bound nodes per exact solve
	// (0 = DefaultILPNodeBudget). When the budget runs out, the solve is
	// anytime: the best incumbent found is still used and the downgrade
	// is reported as a SolverDegraded event.
	ILPNodeBudget int
	// ILPPivotBudget optionally caps total simplex pivots per exact
	// solve (0 = no extra cap beyond the per-LP default), bounding worst
	// cases where few branch-and-bound nodes each burn many pivots.
	ILPPivotBudget int
	// FIFOTaskLimit, when positive, demotes the scheduler below the list
	// engine to plain FIFO placement once the pending-task count exceeds
	// it — the bottom rung of the degradation ladder, for overloads
	// where even the list engine's ranking work is not worth paying.
	// 0 disables the demotion.
	FIFOTaskLimit int
	// Gamma is the level coefficient γ ∈ (0,1) of the dependency score
	// (Table II sets 0.5).
	Gamma float64
	// Sigma is the per-preemption wait threshold σ used in the estimated
	// preemption cost of the deadline constraint (0.05 s in the paper).
	Sigma units.Time
	// LocalityPenalty, when positive, makes the list engine
	// locality-aware (a paper future-work extension): placing a task off
	// its preferred data node adds this much to its estimated finish
	// time, steering ties — and near-ties — toward local placement. It
	// should match sim.Config.RemoteInputPenalty.
	LocalityPenalty units.Time
	// RiskAversion, when positive, makes the list engine fault-aware:
	// blacklisted nodes are skipped outright, and an unhealthy node's
	// estimated finish time is inflated by
	// RiskAversion × health-penalty × execution-time, steering work
	// toward nodes that have not recently crashed or faulted. Zero keeps
	// the engine oblivious (the paper's baseline behaviour).
	RiskAversion float64
	// DisableWarmStart turns off ILP warm-starting. By default every exact
	// solve seeds branch-and-bound with a greedy incumbent that replays the
	// previous period's plan for surviving tasks (see buildWarmVector); the
	// seed can only tighten pruning, but this knob allows cold/warm A-B
	// comparisons in benchmarks.
	DisableWarmStart bool

	// prevPlan remembers the previous exact solve's placement per task,
	// feeding the next period's warm start. Rebuilt after every solve, so
	// completed tasks age out automatically.
	prevPlan map[dag.Key]warmAssign
	// tm is the attached phase profiler (nil when the run is not
	// profiled); the engine wires it through SetProfiler.
	tm *prof.Timer
}

// SetProfiler implements prof.Instrumentable: the engine attaches its
// phase timer here so each degradation-ladder rung (ilp-solve,
// sched-list, sched-fifo) charges its own phase rather than the generic
// schedule phase.
func (d *DSP) SetProfiler(tm *prof.Timer) { d.tm = tm }

// NewDSP returns the scheduler with the paper's defaults.
func NewDSP() *DSP {
	return &DSP{
		Mode:         Auto,
		ILPTaskLimit: 10,
		ILPNodeLimit: 4,
		Gamma:        0.5,
		Sigma:        50 * units.Millisecond,
	}
}

// Name implements sim.Scheduler.
func (d *DSP) Name() string {
	switch d.Mode {
	case ILPOnly:
		return "DSP-ILP"
	case ListOnly:
		return "DSP-List"
	default:
		return "DSP"
	}
}

// Schedule implements sim.Scheduler. It walks the degradation ladder:
// exact ILP → anytime ILP incumbent → list engine → FIFO. Each rung is
// tried only when its preconditions hold, and every downgrade is
// reported through the view as a SolverDegraded event so overload
// behaviour is visible in metrics and traces.
func (d *DSP) Schedule(now units.Time, pending []*sim.JobState, v *sim.View) []sim.Assignment {
	nTasks := 0
	for _, j := range pending {
		nTasks += len(j.PendingTasks())
	}
	useILP := false
	switch d.Mode {
	case ILPOnly:
		useILP = true
	case Auto:
		useILP = nTasks > 0 && nTasks <= d.ILPTaskLimit &&
			v.Cluster().Len() <= d.ILPNodeLimit
	}
	if useILP {
		d.tm.Enter(prof.PhaseILPSolve)
		out, res := d.scheduleILP(now, pending, v)
		d.tm.Exit()
		switch {
		case res.ok && res.exact:
			return out
		case res.ok:
			// Budget ran out mid-search; the incumbent is feasible, just
			// not provably optimal. Use it — that is the anytime contract.
			v.ReportSolverDegraded(now, sim.SolverDegradation{
				From: sim.TierILPExact, To: sim.TierILPIncumbent,
				Reason: res.reason, PendingTasks: nTasks, Nodes: res.nodes,
			})
			return out
		default:
			// Exact solve produced nothing usable (model too large, no
			// usable machines, infeasible, budget spent before any
			// incumbent): fall to the heuristic rather than dropping the
			// period.
			v.ReportSolverDegraded(now, sim.SolverDegradation{
				From: sim.TierILPExact, To: sim.TierList,
				Reason: res.reason, PendingTasks: nTasks, Nodes: res.nodes,
			})
		}
	}
	if d.FIFOTaskLimit > 0 && nTasks > d.FIFOTaskLimit {
		v.ReportSolverDegraded(now, sim.SolverDegradation{
			From: sim.TierList, To: sim.TierFIFO,
			Reason: "pending-tasks-over-limit", PendingTasks: nTasks,
		})
		d.tm.Enter(prof.PhaseSchedFIFO)
		out := d.scheduleFIFO(now, pending, v)
		d.tm.Exit()
		return out
	}
	d.tm.Enter(prof.PhaseSchedList)
	out := d.scheduleList(now, pending, v)
	d.tm.Exit()
	return out
}

// EstimatePreemptions estimates N^p, the number of preemptions a task
// will experience, from the cluster load factor (outstanding work per
// slot per period) and the task's relative size, following the spirit of
// the checkpoint-scheduling estimator the paper cites ([29]): longer
// tasks under higher contention are preempted more.
func EstimatePreemptions(sizeMI, meanSizeMI, loadFactor float64) int {
	if meanSizeMI <= 0 || loadFactor <= 0 {
		return 0
	}
	est := loadFactor * sizeMI / meanSizeMI
	switch {
	case est < 0.5:
		return 0
	case est < 1.5:
		return 1
	case est < 3:
		return 2
	default:
		return 3
	}
}
