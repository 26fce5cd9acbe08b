package preempt

import (
	"math"
	"sort"

	"dsp/internal/cluster"
	"dsp/internal/prof"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// DSP is the dependency-aware preemption policy of Algorithm 1. Every
// epoch, for every node queue:
//
//  1. Urgent tasks (allowable wait ≤ ε, or waiting ≥ τ) preempt the
//     lowest-priority preemptable running task they do not depend on,
//     unconditionally.
//  2. The first δ·|A| waiting tasks (preempting tasks) each scan the
//     preemptable running tasks in ascending priority and preempt the
//     first victim satisfying C1 (higher priority than the victim) and
//     C2 (no dependency on the victim). With the normalized-priority
//     filter (PP) enabled, the priority difference must additionally
//     exceed ρ·P̄, the scaled average neighboring-task gap, so that the
//     throughput gain covers the context-switch cost.
//
// A running task is preemptable only if its allowable waiting time
// exceeds the epoch, guaranteeing preemption never pushes a running task
// past its own deadline.
type DSP struct {
	P Params
	// UsePP enables the normalized-priority filter; DSPW/oPP (the
	// ablation the paper evaluates as "DSPW/oPP") disables it.
	UsePP bool

	name string
	// memo is the epoch-persistent priority evaluator (lazily created, so
	// zero-value DSP literals in tests keep working).
	memo *Memo
	// Reusable per-epoch scratch, so the epoch loop stops allocating once
	// the buffers reach the cluster's working-set size.
	preemptable []cand
	priBuf      []float64
	victimUsed  map[*sim.TaskState]bool
	starterUsed map[*sim.TaskState]bool
	// tm is the attached phase profiler (nil when the run is not
	// profiled); the engine wires it through SetProfiler.
	tm *prof.Timer
}

// SetProfiler implements prof.Instrumentable: the engine attaches its
// phase timer here so the epoch's verdict scan and the memo's
// evaluation/rebuild passes charge their own phases instead of the
// generic epoch-policy phase.
func (d *DSP) SetProfiler(tm *prof.Timer) { d.tm = tm }

// cand pairs a preemptable running task with its priority at epoch
// evaluation time.
type cand struct {
	t  *sim.TaskState
	pr float64
}

// NewDSP returns the full DSP policy with Table II parameters.
func NewDSP() *DSP {
	return &DSP{P: DefaultParams(), UsePP: true, name: "DSP"}
}

// NewDSPWithoutPP returns the DSPW/oPP ablation: identical except
// preemption uses the absolute priority comparison only.
func NewDSPWithoutPP() *DSP {
	return &DSP{P: DefaultParams(), UsePP: false, name: "DSPW/oPP"}
}

// Name implements sim.Preemptor.
func (d *DSP) Name() string {
	if d.name != "" {
		return d.name
	}
	if d.UsePP {
		return "DSP"
	}
	return "DSPW/oPP"
}

// Epoch implements sim.Preemptor.
func (d *DSP) Epoch(now units.Time, v *sim.View) []sim.Action {
	if d.memo == nil {
		d.memo = NewMemo()
	}
	if d.victimUsed == nil {
		d.victimUsed = make(map[*sim.TaskState]bool)
		d.starterUsed = make(map[*sim.TaskState]bool)
	}
	d.memo.tm = d.tm
	d.memo.BeginEpoch(d.P, now, v)
	var out []sim.Action
	considered, fired := 0, 0
	// One verdict-scan phase per epoch (not per node): the per-node scan
	// can be microseconds, and phase boundaries there would cost more
	// than they measure. Memo work nested inside charges its own phases.
	d.tm.Enter(prof.PhaseVerdictScan)
	for k := 0; k < v.Cluster().Len(); k++ {
		node := cluster.NodeID(k)
		c, f := d.epochNode(node, now, v, d.memo, &out)
		considered += c
		fired += f
	}
	d.tm.Exit()
	if d.P.AdaptDelta && considered > 0 {
		rate := float64(fired) / float64(considered)
		switch {
		case rate > 0.75:
			d.P.Delta = math.Min(1, d.P.Delta*1.2)
		case rate < 0.25:
			d.P.Delta = math.Max(0.05, d.P.Delta*0.8)
		}
	}
	return out
}

// epochNode runs Algorithm 1 for one node and appends actions. It
// returns how many preempting tasks were considered and how many
// preempted, feeding the dynamic δ adjustment.
func (d *DSP) epochNode(node cluster.NodeID, now units.Time, v *sim.View, calc *Memo, out *[]sim.Action) (considered, fired int) {
	speed := v.Speed(node)
	epoch := v.Epoch()

	waiting := v.Queue(node) // ascending planned-start order
	running := v.Running(node)
	if len(waiting) == 0 || len(running) == 0 {
		return 0, 0
	}

	// Preemptable running tasks: those whose own deadline tolerates
	// sitting out at least one epoch.
	preemptable := d.preemptable[:0]
	for _, r := range running {
		if d.P.MaxVictimPreemptions > 0 && r.Preemptions >= d.P.MaxVictimPreemptions {
			continue // fairness guard: this task has suffered enough
		}
		if r.Deadline == units.Forever || r.AllowableWait(now, speed) > epoch {
			preemptable = append(preemptable, cand{t: r, pr: calc.Priority(r)})
		}
	}
	if len(preemptable) == 0 {
		return 0, 0
	}
	sort.Slice(preemptable, func(a, b int) bool {
		if preemptable[a].pr != preemptable[b].pr {
			return preemptable[a].pr < preemptable[b].pr
		}
		return lessKey(preemptable[a].t, preemptable[b].t)
	})

	// P̄ over all tasks on this node (waiting ∪ running).
	all := d.priBuf[:0]
	for _, t := range waiting {
		all = append(all, calc.Priority(t))
	}
	for _, t := range running {
		all = append(all, calc.Priority(t))
	}
	avgGap := AvgNeighborGap(all)

	clear(d.victimUsed)
	clear(d.starterUsed)
	victimUsed := d.victimUsed
	starterUsed := d.starterUsed
	obs := v.Observer()

	dependsOn := func(a, b *sim.TaskState) bool {
		return a.Job == b.Job && a.Job.Dag.DependsOn(a.Task.ID, b.Task.ID)
	}

	take := func(starter *sim.TaskState, requireC1, requirePP, urgent bool) bool {
		sp := calc.Priority(starter)
		for _, vc := range preemptable {
			if victimUsed[vc.t] {
				continue
			}
			if dependsOn(starter, vc.t) {
				continue // condition C2
			}
			var threshold float64
			if requireC1 {
				diff := sp - vc.pr
				if diff <= 0 {
					return false // victims only get higher-priority from here
				}
				if requirePP && d.UsePP {
					threshold = d.P.Rho * avgGap
					if avgGap <= 0 || diff/avgGap <= d.P.Rho {
						// The gain does not cover the context-switch
						// cost: the PP filter suppresses the preemption.
						if obs != nil {
							obs.Observe(sim.Event{Kind: sim.PreemptionConsidered, At: now, Decision: sim.PreemptionDecision{
								Node:              node,
								Candidate:         starter,
								Victim:            vc.t,
								CandidatePriority: sp,
								VictimPriority:    vc.pr,
								Gain:              diff,
								Overhead:          threshold,
								Verdict:           sim.VerdictSuppressedByPP,
							}})
						}
						return false
					}
				}
			}
			victimUsed[vc.t] = true
			starterUsed[starter] = true
			*out = append(*out, sim.Action{
				Node: node, Victim: vc.t, Starter: starter,
				Urgent:          urgent,
				StarterPriority: sp,
				VictimPriority:  vc.pr,
				PPThreshold:     threshold,
			})
			return true
		}
		return false
	}

	// Pass 1 — urgent tasks anywhere in the queue: t^a ≤ ε or t^w ≥ τ.
	// Deadline urgency only applies while the deadline is still
	// rescuable: once a task is hopelessly late, preempting for it cannot
	// recover the deadline and would only thrash.
	for _, w := range waiting {
		if starterUsed[w] {
			continue
		}
		urgent := w.WaitingTime(now) >= d.P.Tau
		if !urgent && w.Deadline != units.Forever {
			aw := w.AllowableWait(now, speed)
			urgent = aw <= d.P.Epsilon && aw >= -epoch
		}
		if !urgent {
			continue
		}
		if !w.DepsMet() {
			continue // cannot run yet regardless of urgency
		}
		take(w, false, false, true)
	}

	// Pass 2 — the δ-window of preempting tasks at the head of the queue.
	window := int(math.Ceil(d.P.Delta * float64(len(waiting))))
	if window < 1 {
		window = 1
	}
	for i := 0; i < window && i < len(waiting); i++ {
		w := waiting[i]
		if starterUsed[w] {
			continue
		}
		if !w.DepsMet() {
			continue // starting it would violate its own dependencies
		}
		considered++
		if take(w, true, true, false) {
			fired++
		}
	}
	// Hand the (possibly grown) scratch buffers back for the next node.
	d.preemptable = preemptable[:0]
	d.priBuf = all[:0]
	return considered, fired
}

func lessKey(a, b *sim.TaskState) bool {
	if a.Task.Job != b.Task.Job {
		return a.Task.Job < b.Task.Job
	}
	return a.Task.ID < b.Task.ID
}
