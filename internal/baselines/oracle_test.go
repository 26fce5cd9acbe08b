package baselines

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"dsp/internal/cluster"
	"dsp/internal/sim"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// The reference preemptors below are the straightforward sort-based
// Epoch bodies: per node, fully sort the victims and the whole waiting
// queue with comparators that recompute every key, then walk both lists.
// matchNode must reproduce their action sequences exactly.

type refAmoeba struct{}

func (refAmoeba) Name() string { return "Amoeba" }

func (refAmoeba) Epoch(now units.Time, v *sim.View) []sim.Action {
	var out []sim.Action
	for k := 0; k < v.Cluster().Len(); k++ {
		node := cluster.NodeID(k)
		waiting := v.Queue(node)
		running := v.Running(node)
		if len(waiting) == 0 || len(running) == 0 {
			continue
		}
		speed := v.Speed(node)
		rem := func(t *sim.TaskState) units.Time { return t.LiveRemainingTime(now, speed) }
		victims := append([]*sim.TaskState(nil), running...)
		sort.Slice(victims, func(a, b int) bool {
			ra, rb := rem(victims[a]), rem(victims[b])
			if ra != rb {
				return ra > rb
			}
			return lessTask(victims[a], victims[b])
		})
		starters := append([]*sim.TaskState(nil), waiting...)
		sort.Slice(starters, func(a, b int) bool {
			ra, rb := rem(starters[a]), rem(starters[b])
			if ra != rb {
				return ra < rb
			}
			return lessTask(starters[a], starters[b])
		})
		vi := 0
		for _, s := range starters {
			if vi >= len(victims) {
				break
			}
			if rem(s) < rem(victims[vi]) {
				out = append(out, sim.Action{Node: node, Victim: victims[vi], Starter: s})
				vi++
			} else {
				break
			}
		}
	}
	return out
}

type refNatjam struct{}

func (refNatjam) Name() string { return "Natjam" }

func (refNatjam) Epoch(now units.Time, v *sim.View) []sim.Action {
	var out []sim.Action
	arrivalWindow := now - v.Epoch()
	for k := 0; k < v.Cluster().Len(); k++ {
		node := cluster.NodeID(k)
		waiting := v.Queue(node)
		running := v.Running(node)
		if len(waiting) == 0 || len(running) == 0 {
			continue
		}
		var victims []*sim.TaskState
		for _, r := range running {
			if !r.Job.Dag.Production {
				victims = append(victims, r)
			}
		}
		if len(victims) == 0 {
			continue
		}
		speed := v.Speed(node)
		sort.Slice(victims, func(a, b int) bool {
			ra := victims[a].LiveRemainingTime(now, speed)
			rb := victims[b].LiveRemainingTime(now, speed)
			if ra != rb {
				return ra > rb
			}
			if victims[a].Deadline != victims[b].Deadline {
				return victims[a].Deadline > victims[b].Deadline
			}
			return lessTask(victims[a], victims[b])
		})
		vi := 0
		for _, s := range waiting {
			if vi >= len(victims) {
				break
			}
			if !s.Job.Dag.Production || s.FirstStart >= 0 || s.QueuedAt < arrivalWindow {
				continue
			}
			out = append(out, sim.Action{Node: node, Victim: victims[vi], Starter: s})
			vi++
		}
	}
	return out
}

type refSRPT struct{ *SRPT }

func (r refSRPT) Epoch(now units.Time, v *sim.View) []sim.Action {
	s := r.SRPT
	var out []sim.Action
	for k := 0; k < v.Cluster().Len(); k++ {
		node := cluster.NodeID(k)
		waiting := v.Queue(node)
		running := v.Running(node)
		if len(waiting) == 0 || len(running) == 0 {
			continue
		}
		speed := v.Speed(node)
		victims := append([]*sim.TaskState(nil), running...)
		sort.Slice(victims, func(a, b int) bool {
			pa, pb := s.priority(victims[a], now, speed), s.priority(victims[b], now, speed)
			if pa != pb {
				return pa < pb
			}
			return lessTask(victims[a], victims[b])
		})
		starters := append([]*sim.TaskState(nil), waiting...)
		sort.Slice(starters, func(a, b int) bool {
			pa, pb := s.priority(starters[a], now, speed), s.priority(starters[b], now, speed)
			if pa != pb {
				return pa > pb
			}
			return lessTask(starters[a], starters[b])
		})
		vi := 0
		for _, st := range starters {
			if vi >= len(victims) {
				break
			}
			if st.LiveRemainingTime(now, speed) < victims[vi].LiveRemainingTime(now, speed) {
				out = append(out, sim.Action{Node: node, Victim: victims[vi], Starter: st})
				vi++
			}
		}
	}
	return out
}

// diffPreemptor runs the policy under test and its reference on the same
// view every epoch, records the first divergence, and drives the
// simulation with the policy's actions.
type diffPreemptor struct {
	pre, ref sim.Preemptor

	epochs, actions, maxQueue int
	mismatch                  string
}

func (d *diffPreemptor) Name() string { return d.pre.Name() }

func (d *diffPreemptor) Epoch(now units.Time, v *sim.View) []sim.Action {
	got := d.pre.Epoch(now, v)
	want := d.ref.Epoch(now, v)
	d.epochs++
	d.actions += len(got)
	for k := 0; k < v.Cluster().Len(); k++ {
		d.maxQueue = max(d.maxQueue, len(v.Queue(cluster.NodeID(k))))
	}
	if d.mismatch == "" && !slices.Equal(got, want) {
		d.mismatch = fmt.Sprintf("epoch %d at %v:\n got  %v\n want %v", d.epochs, now, actionKeys(got), actionKeys(want))
	}
	return got
}

func actionKeys(as []sim.Action) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = fmt.Sprintf("n%d:%s>%s", a.Node, a.Victim.Key(), a.Starter.Key())
	}
	return out
}

// TestPreemptorsMatchSortOracle requires the heap-based matcher to emit
// byte-for-byte the action sequence of the sort-based reference on every
// epoch of contended random workloads. The quantized variant rounds task
// sizes to powers of two, so remaining times tie across tasks and jobs
// and the deadline and lessTask tie-breaks decide.
func TestPreemptorsMatchSortOracle(t *testing.T) {
	type pol struct {
		pre, ref sim.Preemptor
		cp       cluster.CheckpointPolicy
	}
	actions := map[string]int{}
	deepest := 0
	for run := 0; run < 20; run++ {
		seed, quantized := int64(run/2+1), run%2 == 1
		srpt := NewSRPT()
		for _, p := range []pol{
			{Amoeba{}, refAmoeba{}, cluster.DefaultCheckpoint()},
			{Natjam{}, refNatjam{}, cluster.DefaultCheckpoint()},
			{srpt, refSRPT{srpt}, cluster.NoCheckpoint()},
		} {
			spec := trace.DefaultSpec(6, seed)
			spec.TaskScale = 0.03
			spec.MeanTaskSizeMI *= 25
			w, err := trace.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if quantized {
				for _, j := range w.Jobs {
					for _, task := range j.DAG.Tasks {
						task.Size = math.Exp2(math.Round(math.Log2(task.Size)))
					}
				}
			}
			d := &diffPreemptor{pre: p.pre, ref: p.ref}
			res, err := sim.Run(sim.Config{
				Cluster:    cluster.EC2(3),
				Scheduler:  rrScheduler{},
				Preemptor:  d,
				Checkpoint: p.cp,
				MaxEvents:  5_000_000,
			}, w)
			if err != nil || res.JobsCompleted != 6 {
				t.Fatalf("seed %d quantized=%v %s: err=%v", seed, quantized, p.pre.Name(), err)
			}
			if d.mismatch != "" {
				t.Fatalf("seed %d quantized=%v %s diverges from the sort oracle at %s", seed, quantized, p.pre.Name(), d.mismatch)
			}
			actions[p.pre.Name()] += d.actions
			deepest = max(deepest, d.maxQueue)
		}
	}
	// Guard against a vacuous pass: every policy must preempt, on queues
	// deep enough for the heap to matter.
	for _, name := range []string{"Amoeba", "Natjam", "SRPT"} {
		if actions[name] == 0 {
			t.Errorf("%s never preempted: the workloads do not exercise the matcher", name)
		}
	}
	if deepest < 10 {
		t.Errorf("deepest queue %d: the workloads do not contend", deepest)
	}
	t.Logf("actions compared per policy %v, deepest queue %d", actions, deepest)
}

// TestNatjamTieOnRemainingMatchesOracle covers the tie random workloads
// rarely reach: two research victims with equal remaining time, where
// Natjam's latest-deadline rule picks the victim.
func TestNatjamTieOnRemainingMatchesOracle(t *testing.T) {
	early, late := sizedJob(0, 30000), sizedJob(1, 30000)
	early.Deadline, late.Deadline = 500, 900
	production := sizedJob(2, 1000)
	production.Production = true
	d := &diffPreemptor{pre: Natjam{}, ref: refNatjam{}}
	if _, err := sim.Run(sim.Config{
		Cluster:    testCluster(1, 2),
		Scheduler:  rrScheduler{},
		Preemptor:  d,
		Checkpoint: cluster.DefaultCheckpoint(),
		Epoch:      10 * units.Second,
	}, workload(early, late, production)); err != nil {
		t.Fatal(err)
	}
	if d.mismatch != "" {
		t.Fatalf("Natjam diverges from the sort oracle at %s", d.mismatch)
	}
	if d.actions == 0 {
		t.Fatal("production task never preempted: the tie was not exercised")
	}
}
