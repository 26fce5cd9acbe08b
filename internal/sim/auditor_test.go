package sim

import (
	"strings"
	"testing"

	"dsp/internal/cluster"
	"dsp/internal/dag"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// corruptingPreemptor flips one running task to Suspended without
// telling the engine — exactly the kind of bookkeeping rot the runtime
// auditor exists to catch.
type corruptingPreemptor struct {
	fired bool
}

func (c *corruptingPreemptor) Name() string { return "corrupting" }
func (c *corruptingPreemptor) Epoch(now units.Time, v *View) []Action {
	if c.fired {
		return nil
	}
	for k := 0; k < v.Cluster().Len(); k++ {
		if running := v.Running(cluster.NodeID(k)); len(running) > 0 {
			running[0].Phase = Suspended
			c.fired = true
			break
		}
	}
	return nil
}

// violationRecorder captures InvariantViolated events.
type violationRecorder struct {
	violations []InvariantViolation
}

func (r *violationRecorder) Observe(ev Event) {
	if ev.Kind == InvariantViolated {
		r.violations = append(r.violations, ev.Violation)
	}
}

func TestAuditorQuarantinesCorruptedTask(t *testing.T) {
	// The corrupted task sits in a node's running set with phase
	// Suspended. The auditor must detect it at the same epoch, quarantine
	// it (failing its job), and let the rest of the run proceed — no
	// panic, no hang, no silent garbage.
	a := sizedJob(0, 5000, 5000)
	b := sizedJob(1, 5000, 5000)
	rec := &violationRecorder{}
	cp := cluster.DefaultCheckpoint()
	cp.Interval = 500 * units.Millisecond // below the 1 s epoch
	res, err := Run(Config{
		Cluster:         testCluster(2, 1),
		Scheduler:       rrScheduler{},
		Preemptor:       &corruptingPreemptor{},
		Checkpoint:      cp,
		Epoch:           units.Second,
		AuditInvariants: true,
		Observer:        rec,
	}, mkWorkload([]units.Time{0, 0}, a, b))
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantViolations < 1 {
		t.Errorf("InvariantViolations = %d, want >= 1", res.InvariantViolations)
	}
	if res.Quarantines < 1 {
		t.Errorf("Quarantines = %d, want >= 1", res.Quarantines)
	}
	if res.JobsFailed < 1 {
		t.Errorf("JobsFailed = %d, want >= 1 (quarantine fails the owner)", res.JobsFailed)
	}
	if res.JobsCompleted+res.JobsFailed != 2 {
		t.Errorf("completed %d + failed %d != 2", res.JobsCompleted, res.JobsFailed)
	}
	found := false
	for _, v := range rec.violations {
		if v.Check == "phase-running" {
			found = true
		}
	}
	if !found {
		t.Errorf("no phase-running violation reported; got %+v", rec.violations)
	}
}

func TestAuditorCleanRunReportsNothing(t *testing.T) {
	j := sizedJob(0, 2000, 2000, 2000)
	j.MustDep(0, 1)
	res, err := Run(Config{
		Cluster:         testCluster(2, 2),
		Scheduler:       rrScheduler{},
		AuditInvariants: true,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantViolations != 0 || res.Quarantines != 0 {
		t.Errorf("clean run: violations=%d quarantines=%d, want 0/0",
			res.InvariantViolations, res.Quarantines)
	}
	if res.TasksCompleted != 3 {
		t.Errorf("completed %d tasks, want 3", res.TasksCompleted)
	}
}

func TestRunRejectsBrokenJobGraphs(t *testing.T) {
	base := Config{Cluster: testCluster(1, 1), Scheduler: rrScheduler{}}
	cases := []struct {
		name string
		w    *trace.Workload
		want string
	}{
		{
			name: "cross-job cycle",
			w: &trace.Workload{ArrivalRate: 3, Jobs: []*trace.Job{
				{Class: trace.Small, DAG: sizedJob(0, 100), WaitsFor: []dag.JobID{1}},
				{Class: trace.Small, DAG: sizedJob(1, 100), WaitsFor: []dag.JobID{0}},
			}},
			want: "cycle involving job",
		},
		{
			name: "unknown dependency",
			w: &trace.Workload{ArrivalRate: 3, Jobs: []*trace.Job{
				{Class: trace.Small, DAG: sizedJob(0, 100), WaitsFor: []dag.JobID{99}},
			}},
			want: "waits for unknown job 99",
		},
		{
			name: "self dependency",
			w: &trace.Workload{ArrivalRate: 3, Jobs: []*trace.Job{
				{Class: trace.Small, DAG: sizedJob(0, 100), WaitsFor: []dag.JobID{0}},
			}},
			want: "waits for itself",
		},
		{
			name: "duplicate task ID",
			w: func() *trace.Workload {
				j := sizedJob(0, 100, 100)
				j.Tasks[1].ID = 0 // two tasks claiming ID 0
				return mkWorkload([]units.Time{0}, j)
			}(),
			want: "task slot 1 holds task ID 0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(base, tc.w)
			if err == nil {
				t.Fatal("broken job graph accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the offender (want substring %q)", err, tc.want)
			}
		})
	}
}
