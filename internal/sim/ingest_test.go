package sim

import (
	"testing"

	"dsp/internal/dag"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// streamCfg is a small streaming engine for ingestion tests: one node,
// one slot, 10 s periods.
func streamCfg(obs Observer) Config {
	return Config{
		Cluster:   testCluster(1, 1),
		Scheduler: rrScheduler{},
		Period:    10 * units.Second,
		Epoch:     5 * units.Second,
		Streaming: true,
		Observer:  obs,
	}
}

func streamJob(id dag.JobID, arrival units.Time, sizes ...float64) *trace.Job {
	return &trace.Job{Class: trace.Small, Arrival: arrival, DAG: sizedJob(id, sizes...)}
}

// shedTimeRecorder captures the event time of every JobShed.
type shedTimeRecorder struct {
	at map[dag.JobID]units.Time
}

func (r *shedTimeRecorder) Observe(ev Event) {
	if ev.Kind == JobShed {
		r.at[ev.Job.ID()] = ev.At
	}
}

// TestStreamingShedEventCarriesArrivalStamp is the regression test for
// the streaming admission timestamp: a job shed at a period boundary
// must emit JobShed with its virtual arrival stamp, not the boundary
// time the decision happens to run at. (Batch runs decide at arrival,
// so the two coincide there; under streaming ingestion they differ by
// up to a full period.)
func TestStreamingShedEventCarriesArrivalStamp(t *testing.T) {
	rec := &shedTimeRecorder{at: map[dag.JobID]units.Time{}}
	cfg := streamCfg(rec)
	cfg.Admission = &Admission{MaxPendingTasks: 1}
	e, err := Prepare(cfg, &trace.Workload{})
	if err != nil {
		t.Fatal(err)
	}
	// A fills the backlog; B arrives at 3 s and must be shed — but the
	// decision only runs at the 10 s boundary drain.
	if _, err := e.Submit(streamJob(0, 2*units.Second, 100000)); err != nil {
		t.Fatal(err)
	}
	stampB, err := e.Submit(streamJob(1, 3*units.Second, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if stampB != 3*units.Second {
		t.Fatalf("stamp for B = %v, want 3s", stampB)
	}
	if _, err := e.StepUntil(10 * units.Second); err != nil {
		t.Fatal(err)
	}
	at, ok := rec.at[1]
	if !ok {
		t.Fatal("job 1 was not shed")
	}
	if at != stampB {
		t.Errorf("JobShed event time = %v, want the arrival stamp %v (not the boundary)", at, stampB)
	}
	if st, ok := e.JobStatus(1); !ok || st.State != "shed" {
		t.Errorf("job 1 status = %+v (ok %v), want shed", st, ok)
	}
}

// TestStreamingLifecycleAndCancel walks a job through accepted ->
// pending/running -> completed, cancels another mid-flight, and checks
// the terminal accounting identity.
func TestStreamingLifecycleAndCancel(t *testing.T) {
	e, err := Prepare(streamCfg(nil), &trace.Workload{})
	if err != nil {
		t.Fatal(err)
	}
	// Job 0: two 5 s tasks (serial on the single slot). Job 1: one 60 s
	// task, cancelled while running.
	if _, err := e.Submit(streamJob(0, 0, 5000, 5000)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(streamJob(1, 0, 60000)); err != nil {
		t.Fatal(err)
	}
	if st, ok := e.JobStatus(0); !ok || st.State != "accepted" {
		t.Fatalf("pre-drain status = %+v (ok %v), want accepted", st, ok)
	}
	if _, err := e.StepUntil(10 * units.Second); err != nil { // first boundary: drain + schedule
		t.Fatal(err)
	}
	st, ok := e.JobStatus(0)
	if !ok || (st.State != "running" && st.State != "pending") {
		t.Fatalf("post-drain status = %+v (ok %v), want running/pending", st, ok)
	}
	if _, err := e.RequestCancel(1); err != nil {
		t.Fatal(err)
	}
	// Cancels are idempotent for known jobs.
	if _, err := e.RequestCancel(1); err != nil {
		t.Fatalf("second cancel: %v", err)
	}
	if _, err := e.StepUntil(30 * units.Second); err != nil {
		t.Fatal(err)
	}
	if st, ok := e.JobStatus(1); !ok || st.State != "cancelled" {
		t.Fatalf("cancelled job status = %+v (ok %v), want cancelled", st, ok)
	}
	res, err := e.FinishStreaming()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted != 1 || res.JobsCancelled != 1 {
		t.Errorf("completed %d cancelled %d, want 1 and 1", res.JobsCompleted, res.JobsCancelled)
	}
	if res.JobsCompleted+res.JobsFailed+res.JobsShed != 2 {
		t.Errorf("accounting: %d + %d + %d != 2", res.JobsCompleted, res.JobsFailed, res.JobsShed)
	}
	if st, ok := e.JobStatus(0); !ok || st.State != "completed" || st.TasksDone != 2 {
		t.Errorf("final status = %+v (ok %v), want completed with 2 tasks done", st, ok)
	}
}

// TestStreamingSubmitValidation covers the synchronous reject paths the
// serving layer maps to HTTP errors.
func TestStreamingSubmitValidation(t *testing.T) {
	e, err := Prepare(streamCfg(nil), &trace.Workload{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(streamJob(7, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(streamJob(7, 0, 1000)); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := e.RequestCancel(99); err == nil {
		t.Error("cancel of unknown job accepted")
	}
	bad := streamJob(8, 0, 1000)
	bad.WaitsFor = []dag.JobID{42}
	if _, err := e.Submit(bad); err == nil {
		t.Error("submission waiting on unknown job accepted")
	}
	e.CloseIngest()
	if _, err := e.Submit(streamJob(9, 0, 1000)); err == nil {
		t.Error("submission after CloseIngest accepted")
	}
}

// TestStreamingRetirementBoundsState checks that settled jobs release
// their DAG and task state at the next boundary while their externally
// visible status survives.
func TestStreamingRetirementBoundsState(t *testing.T) {
	e, err := Prepare(streamCfg(nil), &trace.Workload{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(streamJob(0, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepUntil(30 * units.Second); err != nil { // completes at ~11 s, retires at 20 s
		t.Fatal(err)
	}
	js := e.jobByID(0)
	if js == nil {
		t.Fatal("job 0 gone from index")
	}
	if !js.Retired() || js.Tasks != nil || js.Dag != nil {
		t.Errorf("job not retired: retired=%v tasks=%v dag=%v", js.Retired(), js.Tasks != nil, js.Dag != nil)
	}
	st, ok := e.JobStatus(0)
	if !ok || st.State != "completed" || st.TasksTotal != 1 || st.TasksDone != 1 {
		t.Errorf("retired status = %+v (ok %v), want completed 1/1", st, ok)
	}
}
