package sched

import (
	"testing"

	"dsp/internal/sim"
	"dsp/internal/units"
)

// degradeRecorder captures every SolverDegraded event a run emits.
type degradeRecorder struct {
	events []sim.SolverDegradation
}

func (r *degradeRecorder) Observe(ev sim.Event) {
	if ev.Kind == sim.SolverDegraded {
		r.events = append(r.events, ev.Degradation)
	}
}

func TestLadderExactSolveEmitsNoDegradation(t *testing.T) {
	j := sizedJob(0, 4000, 3000, 3000)
	d := NewDSP()
	d.Mode = ILPOnly
	rec := &degradeRecorder{}
	res, err := sim.Run(sim.Config{Cluster: testCluster(2, 1), Scheduler: d, Observer: rec},
		oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 6*units.Second {
		t.Errorf("makespan = %v, want optimal 6s", res.Makespan)
	}
	if len(rec.events) != 0 || res.SolverDegradations != 0 {
		t.Errorf("exact solve degraded: events=%v count=%d", rec.events, res.SolverDegradations)
	}
}

func TestLadderAnytimeIncumbentUnderTightBudget(t *testing.T) {
	// A node budget far below what the exact solve needs forces the
	// anytime path: the run must still complete every task using the
	// best incumbent (or the list fallback), and each budget exhaustion
	// must surface as a SolverDegraded event.
	j := sizedJob(0, 4000, 3000, 3000, 2000)
	d := NewDSP()
	d.Mode = ILPOnly
	d.ILPNodeBudget = 6
	rec := &degradeRecorder{}
	res, err := sim.Run(sim.Config{Cluster: testCluster(2, 1), Scheduler: d, Observer: rec},
		oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 4 {
		t.Errorf("completed %d tasks, want 4", res.TasksCompleted)
	}
	if len(rec.events) == 0 {
		t.Fatal("tight budget produced no SolverDegraded events")
	}
	if res.SolverDegradations != len(rec.events) {
		t.Errorf("Result counts %d degradations, observer saw %d",
			res.SolverDegradations, len(rec.events))
	}
	for _, ev := range rec.events {
		if ev.From != sim.TierILPExact {
			t.Errorf("degradation from %v, want from ilp-exact", ev.From)
		}
		if ev.To != sim.TierILPIncumbent && ev.To != sim.TierList {
			t.Errorf("degradation to %v, want ilp-incumbent or list", ev.To)
		}
	}
}

func TestLadderSizeCutoffEmitsDegradation(t *testing.T) {
	// 4 nodes × 3 slots = 12 VMs > 2×ILPNodeLimit(4): scheduleILP bails
	// on model size, and the bail-out must be visible as an event with
	// the model-too-large reason rather than a silent fallback.
	j := sizedJob(0, 1000, 1000, 1000)
	d := NewDSP()
	d.Mode = ILPOnly
	rec := &degradeRecorder{}
	res, err := sim.Run(sim.Config{Cluster: testCluster(4, 3), Scheduler: d, Observer: rec},
		oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 3 {
		t.Errorf("completed %d tasks, want 3", res.TasksCompleted)
	}
	found := false
	for _, ev := range rec.events {
		if ev.To == sim.TierList && ev.Reason == "model-too-large" {
			found = true
		}
	}
	if !found {
		t.Errorf("no model-too-large degradation event; got %+v", rec.events)
	}
}

func TestLadderFIFODemotion(t *testing.T) {
	sizes := make([]float64, 40)
	for i := range sizes {
		sizes[i] = 1000
	}
	j := sizedJob(0, sizes...)
	d := NewDSP()
	d.Mode = ListOnly
	d.FIFOTaskLimit = 5
	rec := &degradeRecorder{}
	res, err := sim.Run(sim.Config{Cluster: testCluster(4, 2), Scheduler: d, Observer: rec},
		oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 40 {
		t.Errorf("completed %d tasks, want 40", res.TasksCompleted)
	}
	found := false
	for _, ev := range rec.events {
		if ev.From == sim.TierList && ev.To == sim.TierFIFO {
			found = true
			if ev.Reason != "pending-tasks-over-limit" {
				t.Errorf("FIFO demotion reason = %q", ev.Reason)
			}
		}
	}
	if !found {
		t.Errorf("no list->fifo demotion event; got %+v", rec.events)
	}
}

func TestLadderFIFORespectsDependencies(t *testing.T) {
	// FIFO placement hands dependency enforcement to the engine; a chain
	// must still execute in order with no disorder.
	j := sizedJob(0, 1000, 1000, 1000, 1000, 1000, 1000)
	j.MustDep(0, 1)
	j.MustDep(1, 2)
	j.MustDep(2, 3)
	d := NewDSP()
	d.Mode = ListOnly
	d.FIFOTaskLimit = 1
	res, err := sim.Run(sim.Config{Cluster: testCluster(3, 1), Scheduler: d}, oneJobWorkload(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 6 {
		t.Errorf("completed %d tasks, want 6", res.TasksCompleted)
	}
	if res.Disorders != 0 {
		t.Errorf("disorders = %d, want 0", res.Disorders)
	}
}
