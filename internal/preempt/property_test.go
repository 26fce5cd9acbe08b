package preempt

import (
	"testing"
	"testing/quick"

	"dsp/internal/cluster"
	"dsp/internal/sim"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// validator checks Algorithm 1's invariants on every preemption the
// engine applies.
type validator struct {
	t        *testing.T
	epoch    units.Time
	bad      int
	preempts int
}

func (v *validator) Observe(ev sim.Event) {
	if ev.Kind != sim.TaskPreempted {
		return
	}
	now, victim, starter := ev.At, ev.Task, ev.Starter
	v.preempts++
	if starter == nil {
		v.bad++
		v.t.Errorf("preemption without starter at %v", now)
		return
	}
	// C2: the starter must not depend on the victim.
	if starter.Job == victim.Job &&
		starter.Job.Dag.DependsOn(starter.Task.ID, victim.Task.ID) {
		v.bad++
		v.t.Errorf("C2 violated at %v: %v depends on victim %v", now, starter.Key(), victim.Key())
	}
	// Starters must be runnable: all precedents finished.
	if !starter.DepsMet() {
		v.bad++
		v.t.Errorf("unrunnable starter %v at %v", starter.Key(), now)
	}
}

func TestPropertyDSPPreemptionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		spec := trace.DefaultSpec(8, seed)
		spec.TaskScale = 0.03
		spec.MeanTaskSizeMI *= 20 // contended small cluster
		w, err := trace.Generate(spec)
		if err != nil {
			return false
		}
		v := &validator{t: t, epoch: 10 * units.Second}
		res, err := sim.Run(sim.Config{
			Cluster:    cluster.EC2(3),
			Scheduler:  rrScheduler{},
			Preemptor:  NewDSP(),
			Checkpoint: cluster.DefaultCheckpoint(),
			Observer:   v,
		}, w)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.Disorders != 0 {
			t.Logf("seed %d: %d disorders", seed, res.Disorders)
			return false
		}
		if res.JobsCompleted != 8 {
			t.Logf("seed %d: %d jobs completed", seed, res.JobsCompleted)
			return false
		}
		return v.bad == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAllPreemptorsTerminate(t *testing.T) {
	// Every preemption policy must drive every workload to completion —
	// no live-locks — under contention, including the no-checkpoint SRPT
	// path exercised via the experiments registry equivalents.
	policies := []struct {
		pre sim.Preemptor
		cp  cluster.CheckpointPolicy
	}{
		{NewDSP(), cluster.DefaultCheckpoint()},
		{NewDSPWithoutPP(), cluster.DefaultCheckpoint()},
	}
	f := func(seed int64) bool {
		for _, pol := range policies {
			spec := trace.DefaultSpec(6, seed)
			spec.TaskScale = 0.03
			spec.MeanTaskSizeMI *= 25
			w, err := trace.Generate(spec)
			if err != nil {
				return false
			}
			res, err := sim.Run(sim.Config{
				Cluster:    cluster.EC2(3),
				Scheduler:  rrScheduler{},
				Preemptor:  pol.pre,
				Checkpoint: pol.cp,
				MaxEvents:  5_000_000,
			}, w)
			if err != nil || res.JobsCompleted != 6 {
				t.Logf("seed %d policy %s: err=%v", seed, pol.pre.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
