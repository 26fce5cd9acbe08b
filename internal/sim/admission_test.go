package sim

import (
	"testing"

	"dsp/internal/dag"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// shedRecorder captures every JobShed event with its reason.
type shedRecorder struct {
	shed map[dag.JobID]ShedReason
}

func newShedRecorder() *shedRecorder { return &shedRecorder{shed: map[dag.JobID]ShedReason{}} }

func (r *shedRecorder) Observe(ev Event) {
	if ev.Kind == JobShed {
		r.shed[ev.Job.Dag.ID] = ev.Shed
	}
}

func TestAdmissionQueueBoundSheds(t *testing.T) {
	// A (1 long task) is admitted and starts; B's 3 tasks would push the
	// backlog past the bound of 2 and B is shed; C (1 task) fits again.
	a := sizedJob(0, 10000)
	b := sizedJob(1, 1000, 1000, 1000)
	c := sizedJob(2, 1000)
	rec := newShedRecorder()
	res, err := Run(Config{
		Cluster:   testCluster(1, 1),
		Scheduler: rrScheduler{},
		Admission: &Admission{MaxPendingTasks: 2},
		Observer:  rec,
	}, mkWorkload([]units.Time{0, units.Second, 2 * units.Second}, a, b, c))
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsShed != 1 {
		t.Errorf("JobsShed = %d, want 1", res.JobsShed)
	}
	if res.JobsCompleted != 2 {
		t.Errorf("JobsCompleted = %d, want 2", res.JobsCompleted)
	}
	if reason, ok := rec.shed[1]; !ok || reason != ShedQueueFull {
		t.Errorf("job 1 shed reason = %v (present %v), want queue-full", reason, ok)
	}
	if res.JobsCompleted+res.JobsShed+res.JobsFailed != 3 {
		t.Errorf("accounting: completed %d + shed %d + failed %d != 3",
			res.JobsCompleted, res.JobsShed, res.JobsFailed)
	}
}

func TestAdmissionShedsCertainLoser(t *testing.T) {
	// 10 s of serial work against a 2 s deadline: the critical-path bound
	// alone proves the deadline unreachable, so the job is shed at
	// arrival — counted as shed, not as a completion or a miss.
	j := sizedJob(0, 10000)
	j.Deadline = 2
	rec := newShedRecorder()
	res, err := Run(Config{
		Cluster:   testCluster(1, 1),
		Scheduler: rrScheduler{},
		Admission: &Admission{ShedInfeasible: true},
		Observer:  rec,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsShed != 1 || res.JobsCompleted != 0 {
		t.Errorf("shed=%d completed=%d, want 1/0", res.JobsShed, res.JobsCompleted)
	}
	if reason := rec.shed[0]; reason != ShedDeadlineInfeasible {
		t.Errorf("shed reason = %v, want deadline-infeasible", reason)
	}
	if res.JobsMetDeadline != 0 || res.TasksCompleted != 0 {
		t.Errorf("shed job leaked metrics: met=%d tasks=%d", res.JobsMetDeadline, res.TasksCompleted)
	}
}

func TestAdmissionMarginHedgesBacklogEstimate(t *testing.T) {
	// B's critical path fits its deadline, but the backlog estimate (A's
	// 10 s of outstanding work drained ahead of it) projects it late.
	// Without a hedge the estimate sheds B; Margin 3 tolerates the
	// pessimism and admits it.
	run := func(margin float64) *Result {
		a := sizedJob(0, 10000)
		b := sizedJob(1, 2000)
		b.Deadline = 9
		res, err := Run(Config{
			Cluster:   testCluster(1, 1),
			Scheduler: rrScheduler{},
			Admission: &Admission{ShedInfeasible: true, Margin: margin},
		}, mkWorkload([]units.Time{0, units.Second}, a, b))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(0); res.JobsShed != 1 {
		t.Errorf("no hedge: JobsShed = %d, want 1 (backlog estimate fires)", res.JobsShed)
	}
	if res := run(3); res.JobsShed != 0 || res.JobsCompleted != 2 {
		t.Errorf("margin 3: shed=%d completed=%d, want 0/2", res.JobsShed, res.JobsCompleted)
	}
}

func TestShedCascadesToDependentJobs(t *testing.T) {
	// B waits for A; A is a certain loser. Shedding A makes B permanently
	// ineligible, so B is shed with it — before B even arrives.
	a := sizedJob(0, 10000)
	a.Deadline = 1
	b := sizedJob(1, 1000)
	w := &trace.Workload{ArrivalRate: 3, Jobs: []*trace.Job{
		{Class: trace.Small, Arrival: 0, DAG: a},
		{Class: trace.Small, Arrival: 5 * units.Second, DAG: b, WaitsFor: []dag.JobID{0}},
	}}
	rec := newShedRecorder()
	res, err := Run(Config{
		Cluster:   testCluster(1, 1),
		Scheduler: rrScheduler{},
		Admission: &Admission{ShedInfeasible: true},
		Observer:  rec,
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsShed != 2 {
		t.Errorf("JobsShed = %d, want 2 (cascade)", res.JobsShed)
	}
	if reason := rec.shed[1]; reason != ShedDependency {
		t.Errorf("job 1 shed reason = %v, want dependency", reason)
	}
}

func TestAdmissionNilConfigAdmitsEverything(t *testing.T) {
	j := sizedJob(0, 1000, 1000)
	res, err := Run(Config{
		Cluster:   testCluster(1, 2),
		Scheduler: rrScheduler{},
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsShed != 0 || res.JobsCompleted != 1 {
		t.Errorf("shed=%d completed=%d, want 0/1", res.JobsShed, res.JobsCompleted)
	}
	if res.PeakPendingTasks < 2 {
		t.Errorf("PeakPendingTasks = %d, want >= 2", res.PeakPendingTasks)
	}
}
