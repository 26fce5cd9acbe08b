package sched

import (
	"math"
	"sort"

	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/lp"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// vm is one schedulable slot of a node as offered to the ILP; the paper
// assigns tasks to nodes, and a node with S slots is S unit-capacity
// machines from the model's perspective.
type vm struct {
	node  cluster.NodeID
	speed float64
	avail float64 // seconds from now until the slot frees
}

// ilpOutcome reports how an exact solve went, so Schedule can walk the
// degradation ladder and label the downgrade it takes.
type ilpOutcome struct {
	ok     bool   // a usable (possibly non-optimal) plan was produced
	exact  bool   // the plan is provably optimal
	warm   bool   // branch-and-bound was seeded with a feasible warm start
	reason string // why the solve fell short of exact, for the event log
	nodes  int    // branch-and-bound nodes explored
}

// scheduleILP builds the paper's ILP (Equations 3–11) over the pending
// tasks and solves it under the configured node/pivot budgets. An
// Optimal solve returns exact=true; an Incumbent (budget exhausted
// mid-search) still returns ok=true with the best feasible plan found —
// the anytime contract — and anything else returns ok=false (the caller
// falls back to the list engine, which solves no LP).
//
// Formulation, with start_t the start time of task t (seconds from now),
// e_{t,k} its execution time on machine k, p_t its estimated preemption
// cost N^p·(t^r+σ), and MS the makespan:
//
//	min MS                                                          (3)
//	start_t + Σ_k e_{t,k}·x_{t,k} + p_t ≤ MS        ∀t              (4)
//	ordering on shared machines via y binaries and big-M            (5,8,9)
//	start_t + Σ_k e_{t,k}·x_{t,k} + p_t ≤ d_t       ∀t w/ deadline  (6)
//	start_c ≥ start_p + Σ_k e_{p,k}·x_{p,k}         ∀ edge p→c      (7)
//	Σ_k x_{t,k} = 1, x binary                       ∀t              (10)
//	start_t ≥ avail_k − M(1 − x_{t,k})              ∀t,k            (11)
func (d *DSP) scheduleILP(now units.Time, pending []*sim.JobState, v *sim.View) ([]sim.Assignment, ilpOutcome) {
	var tasks []*sim.TaskState
	for _, j := range pending {
		tasks = append(tasks, j.PendingTasks()...)
	}
	if len(tasks) == 0 {
		return nil, ilpOutcome{ok: true, exact: true}
	}

	vms := buildVMs(now, v)
	if len(vms) == 0 {
		return nil, ilpOutcome{reason: "no-usable-machines"}
	}
	// The exact solver is exponential in assignment binaries (tasks ×
	// VMs); past a small VM budget the list engine is the right tool (a node with S slots contributes S VMs, so a "small"
	// cluster can still be a large ILP).
	if len(vms) > 2*d.ILPNodeLimit {
		return nil, ilpOutcome{reason: "model-too-large"}
	}

	// Execution times and preemption cost estimates.
	nT, nK := len(tasks), len(vms)
	e := make([][]float64, nT)
	var meanSize, totalWork float64
	for _, t := range tasks {
		meanSize += t.Task.Size
	}
	meanSize /= float64(nT)
	for i, t := range tasks {
		e[i] = make([]float64, nK)
		for k, m := range vms {
			e[i][k] = t.Task.Size / m.speed
		}
		totalWork += t.Task.Size
	}
	cp := v.Checkpoint()
	loadFactor := totalWork / (v.Cluster().MeanSpeed() * float64(nK)) / math.Max(1, (5*units.Minute).Seconds())
	pcost := make([]float64, nT)
	for i, t := range tasks {
		np := EstimatePreemptions(t.Task.Size, meanSize, loadFactor)
		pcost[i] = float64(np) * (cp.Recovery + d.Sigma).Seconds()
	}

	// Big-M: generous horizon.
	M := 0.0
	for i := range tasks {
		worst := 0.0
		for k := range vms {
			if e[i][k] > worst {
				worst = e[i][k]
			}
		}
		M += worst + pcost[i]
	}
	for _, m := range vms {
		if m.avail > 0 {
			M += m.avail
		}
	}
	M = M*2 + 1

	model := lp.NewModel("dsp-offline", lp.Minimize)
	model.MaxNodes = d.ILPNodeBudget
	if model.MaxNodes <= 0 {
		model.MaxNodes = DefaultILPNodeBudget
	}
	model.MaxPivots = d.ILPPivotBudget

	ms := model.AddVar(0, math.Inf(1), 1, "MS")
	start := make([]lp.VarID, nT)
	for i := range tasks {
		start[i] = model.AddVar(0, math.Inf(1), 0, "s")
	}
	x := make([][]lp.VarID, nT)
	for i := range tasks {
		x[i] = make([]lp.VarID, nK)
		for k := range vms {
			x[i][k] = model.AddBinVar(0, "x")
		}
	}

	// (10) each task on exactly one machine.
	for i := range tasks {
		terms := make([]lp.Term, nK)
		for k := range vms {
			terms[k] = lp.Term{Var: x[i][k], Coef: 1}
		}
		model.AddConstraint(terms, lp.EQ, 1, "assign")
	}

	// (4) completion ≤ makespan; (6) completion ≤ deadline.
	for i, t := range tasks {
		terms := []lp.Term{{Var: start[i], Coef: 1}, {Var: ms, Coef: -1}}
		for k := range vms {
			terms = append(terms, lp.Term{Var: x[i][k], Coef: e[i][k]})
		}
		model.AddConstraint(terms, lp.LE, -pcost[i], "makespan")

		if t.Deadline != units.Forever {
			dl := (t.Deadline - now).Seconds()
			if dl < 0 {
				continue // already missed; do not make the model infeasible
			}
			dterms := []lp.Term{{Var: start[i], Coef: 1}}
			for k := range vms {
				dterms = append(dterms, lp.Term{Var: x[i][k], Coef: e[i][k]})
			}
			model.AddConstraint(dterms, lp.LE, dl-pcost[i], "deadline")
		}
	}

	// (7) dependency edges among pending tasks; completed/active parents
	// impose constant lower bounds.
	idx := make(map[*sim.TaskState]int, nT)
	for i, t := range tasks {
		idx[t] = i
	}
	extLB := make([]float64, nT) // per-task external lower bound, reused by the warm start
	for i, t := range tasks {
		for _, p := range t.Job.Dag.Parents(t.Task.ID) {
			ps := t.Job.Tasks[p]
			if pi, ok := idx[ps]; ok {
				terms := []lp.Term{{Var: start[i], Coef: 1}, {Var: start[pi], Coef: -1}}
				for k := range vms {
					terms = append(terms, lp.Term{Var: x[pi][k], Coef: -e[pi][k]})
				}
				model.AddConstraint(terms, lp.GE, 0, "dep")
			} else {
				bound := 0.0
				switch ps.Phase {
				case sim.Done:
					// Already finished: no constraint needed.
				case sim.Running, sim.Queued, sim.Suspended:
					bound = (ps.LiveRemainingTime(now, v.Speed(ps.Node)) + units.Max(0, ps.PlannedStart-now)).Seconds()
				}
				if bound > 0 {
					model.AddConstraint([]lp.Term{{Var: start[i], Coef: 1}}, lp.GE, bound, "dep-ext")
					if bound > extLB[i] {
						extLB[i] = bound
					}
				}
			}
		}
	}

	// (11) machine availability.
	for i := range tasks {
		for k, m := range vms {
			if m.avail <= 0 {
				continue
			}
			model.AddConstraint([]lp.Term{
				{Var: start[i], Coef: 1},
				{Var: x[i][k], Coef: -M},
			}, lp.GE, m.avail-M, "avail")
		}
	}

	// (5,8,9) disjunctive ordering on shared machines.
	yID := make([][]lp.VarID, nT)
	for i := range yID {
		yID[i] = make([]lp.VarID, nT)
	}
	for i := 0; i < nT; i++ {
		for u := i + 1; u < nT; u++ {
			y := model.AddBinVar(0, "y")
			yID[i][u] = y
			for k := range vms {
				// i before u on k when y=1.
				model.AddConstraint([]lp.Term{
					{Var: start[i], Coef: 1},
					{Var: start[u], Coef: -1},
					{Var: y, Coef: M},
					{Var: x[i][k], Coef: M},
					{Var: x[u][k], Coef: M},
				}, lp.LE, 3*M-e[i][k], "order")
				// u before i on k when y=0.
				model.AddConstraint([]lp.Term{
					{Var: start[u], Coef: 1},
					{Var: start[i], Coef: -1},
					{Var: y, Coef: -M},
					{Var: x[i][k], Coef: M},
					{Var: x[u][k], Coef: M},
				}, lp.LE, 2*M-e[u][k], "order")
			}
		}
	}

	if !d.DisableWarmStart {
		if w := buildWarmVector(model.NumVars(), now, tasks, vms, e, pcost,
			idx, extLB, d.prevPlan, ms, start, x, yID); w != nil {
			model.SetWarmStart(w)
		}
	}

	sol := model.Solve()
	if !sol.HasSolution() {
		return nil, ilpOutcome{reason: sol.Status.String(), nodes: sol.Nodes}
	}

	if d.prevPlan == nil {
		d.prevPlan = make(map[dag.Key]warmAssign)
	}
	clear(d.prevPlan) // every still-pending task is in this solve
	out := make([]sim.Assignment, 0, nT)
	for i, t := range tasks {
		for k := range vms {
			if sol.Value(x[i][k]) > 0.5 {
				at := now + units.FromSeconds(sol.Value(start[i]))
				out = append(out, sim.Assignment{
					Task:  t,
					Node:  vms[k].node,
					Start: at,
				})
				d.prevPlan[t.Task.Key()] = warmAssign{node: vms[k].node, start: at}
				break
			}
		}
	}
	return out, ilpOutcome{
		ok:     true,
		exact:  sol.Status == lp.Optimal,
		warm:   sol.WarmStarted,
		reason: sol.Status.String(),
		nodes:  sol.Nodes,
	}
}

// buildVMs expands nodes into per-slot machines with availability
// estimates derived from the current running set and queue backlog.
func buildVMs(now units.Time, v *sim.View) []vm {
	c := v.Cluster()
	var out []vm
	for k := 0; k < c.Len(); k++ {
		id := cluster.NodeID(k)
		node := c.Node(id)
		speed := v.Speed(id)
		if speed <= 0 || node.Slots <= 0 {
			continue
		}
		slots := make([]float64, node.Slots)
		running := v.Running(id)
		for i, rt := range running {
			if i < len(slots) {
				slots[i] = rt.LiveRemainingTime(now, speed).Seconds()
			}
		}
		sort.Float64s(slots)
		for _, qt := range v.Queue(id) {
			slots[0] += qt.RemainingTime(speed).Seconds()
			sort.Float64s(slots)
		}
		for _, s := range slots {
			out = append(out, vm{node: id, speed: speed, avail: s})
		}
	}
	return out
}
