package sim

import (
	"testing"

	"dsp/internal/cluster"
	"dsp/internal/eventq"
	"dsp/internal/units"
)

// resilienceObserver tallies the resilience event surface.
type resilienceObserver struct {
	retries, terminals        int
	specLaunch, specWon       int
	specCancel, blacklistings int
	failed, recovered, evicts int
}

func (r *resilienceObserver) Observe(ev Event) {
	switch ev.Kind {
	case TaskRetried:
		r.retries++
	case TaskFailedTerminally:
		r.terminals++
	case SpeculationLaunched:
		r.specLaunch++
	case SpeculationWon:
		r.specWon++
	case SpeculationCancelled:
		r.specCancel++
	case NodeBlacklisted:
		r.blacklistings++
	case NodeFailed:
		r.failed++
	case NodeRecovered:
		r.recovered++
	case TaskEvicted:
		r.evicts++
	}
}

func TestRetryBudgetExhaustionFailsJobCleanly(t *testing.T) {
	// Rate 1 makes every attempt fail, so the task burns its whole budget
	// and must terminate its job with a recorded terminal failure — not
	// loop forever (the run finishing at all is the live-lock check; the
	// engine's MaxEvents guard would error out a retry loop).
	j := sizedJob(0, 10000)
	obs := &resilienceObserver{}
	res, err := Run(Config{
		Cluster:     testCluster(1, 1),
		Scheduler:   rrScheduler{},
		Period:      units.Second,
		RetryBudget: 3,
		Faults:      &FaultPlan{Tasks: &TaskFaults{Rate: 1, Seed: 7}},
		Observer:    obs,
		MaxEvents:   100_000,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if res.TerminalFailures != 1 || obs.terminals != 1 {
		t.Errorf("TerminalFailures = %d (observer %d), want 1", res.TerminalFailures, obs.terminals)
	}
	if res.JobsFailed != 1 || res.JobsCompleted != 0 {
		t.Errorf("JobsFailed = %d, JobsCompleted = %d, want 1 and 0", res.JobsFailed, res.JobsCompleted)
	}
	// Budget 3 = three retried attempts, then the fourth attempt is
	// terminal.
	if res.Retries != 3 || obs.retries != 3 {
		t.Errorf("Retries = %d (observer %d), want 3", res.Retries, obs.retries)
	}
	if res.TaskFaults != 4 {
		t.Errorf("TaskFaults = %d, want 4 (budget 3 + terminal attempt)", res.TaskFaults)
	}
}

func TestUnlimitedRetryEventuallyCompletes(t *testing.T) {
	// With a sub-1 rate and a negative (unlimited) budget the task keeps
	// retrying until an attempt survives; the checkpointed progress of
	// failed attempts accumulates.
	j := sizedJob(0, 5000)
	res, err := Run(Config{
		Cluster:     testCluster(1, 1),
		Scheduler:   rrScheduler{},
		Period:      units.Second,
		Checkpoint:  cluster.DefaultCheckpoint(),
		RetryBudget: -1,
		// Seed 4: attempts 1 and 2 draw under 0.6 (fail), attempt 3
		// survives.
		Faults:    &FaultPlan{Tasks: &TaskFaults{Rate: 0.6, Seed: 4}},
		MaxEvents: 1_000_000,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 1 || res.JobsCompleted != 1 {
		t.Fatalf("task did not complete: %+v", res)
	}
	if res.TaskFaults == 0 || res.Retries != res.TaskFaults {
		t.Errorf("TaskFaults = %d, Retries = %d: want equal and nonzero", res.TaskFaults, res.Retries)
	}
}

func TestRetryBackoffDelaysReadmission(t *testing.T) {
	// A crash eviction of a running task charges the retry budget; with a
	// 10 s backoff the task only re-enters Pending at 12 s even though
	// the node recovered at 3 s. Without backoff it restarts at 4 s.
	run := func(backoff units.Time) *Result {
		j := sizedJob(0, 10000)
		res, err := Run(Config{
			Cluster:      testCluster(1, 1),
			Scheduler:    rrScheduler{},
			Period:       2 * units.Second,
			RetryBackoff: backoff,
			Faults: &FaultPlan{Failures: []NodeFailure{
				{Node: 0, At: 2 * units.Second, RecoverAfter: units.Second},
			}},
		}, mkWorkload([]units.Time{0}, j))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(0)
	delayed := run(10 * units.Second)
	// No backoff: re-placed at the 4 s tick, 10 s of work → 14 s.
	if base.Makespan != 14*units.Second {
		t.Errorf("no-backoff makespan = %v, want 14s", base.Makespan)
	}
	// Backoff 10 s: re-admitted at 12 s, the 12 s tick places it → 22 s.
	if delayed.Makespan != 22*units.Second {
		t.Errorf("backoff makespan = %v, want 22s", delayed.Makespan)
	}
	for _, r := range []*Result{base, delayed} {
		if r.Retries != 1 || r.FailureEvictions != 1 {
			t.Errorf("Retries = %d, FailureEvictions = %d, want 1 and 1", r.Retries, r.FailureEvictions)
		}
	}
}

func TestCrashEvictionsExhaustBudget(t *testing.T) {
	// Budget 1: the first crash eviction is retried, the second is
	// terminal and fails the job.
	j := sizedJob(0, 100000)
	obs := &resilienceObserver{}
	res, err := Run(Config{
		Cluster:     testCluster(1, 1),
		Scheduler:   rrScheduler{},
		Period:      2 * units.Second,
		RetryBudget: 1,
		Faults: &FaultPlan{Failures: []NodeFailure{
			{Node: 0, At: units.Second, RecoverAfter: units.Second},
			{Node: 0, At: 3 * units.Second, RecoverAfter: units.Second},
		}},
		Observer: obs,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 2 || obs.failed != 2 {
		t.Errorf("Failures = %d (observer %d), want 2", res.Failures, obs.failed)
	}
	if res.Retries != 1 || res.TerminalFailures != 1 {
		t.Errorf("Retries = %d, TerminalFailures = %d, want 1 and 1", res.Retries, res.TerminalFailures)
	}
	if res.JobsFailed != 1 || res.TasksCompleted != 0 {
		t.Errorf("JobsFailed = %d, TasksCompleted = %d, want 1 and 0", res.JobsFailed, res.TasksCompleted)
	}
	if obs.evicts != int(res.FailureEvictions) {
		t.Errorf("observer evictions %d != Result.FailureEvictions %d", obs.evicts, res.FailureEvictions)
	}
}

func TestSpeculationRescuesStraggler(t *testing.T) {
	// Task A on node 0 (healthy), task B on node 1 which is a permanent
	// 100× straggler. Once A finishes, the speculation scan finds B
	// crawling and launches a backup on the idle node 0; the backup wins
	// and the crawling primary is written off as speculative waste.
	j := sizedJob(0, 10000, 10000)
	obs := &resilienceObserver{}
	res, err := Run(Config{
		Cluster:   testCluster(2, 1),
		Scheduler: rrScheduler{},
		Faults: &FaultPlan{Stragglers: []Straggler{
			{Node: 1, At: 0, Factor: 0.01},
		}},
		Speculation: &Speculation{Interval: units.Second},
		Observer:    obs,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Speculations != 1 || res.SpeculationWins != 1 {
		t.Errorf("Speculations = %d, wins = %d, want 1 and 1", res.Speculations, res.SpeculationWins)
	}
	if obs.specLaunch != 1 || obs.specWon != 1 || obs.specCancel != 0 {
		t.Errorf("observer spec events launch=%d won=%d cancel=%d, want 1/1/0",
			obs.specLaunch, obs.specWon, obs.specCancel)
	}
	// A done at 10 s frees node 0; the 10 s scan launches the backup,
	// which finishes its full 10 s copy at 20 s. Without speculation B
	// would have needed 1000 s.
	if res.Makespan != 20*units.Second {
		t.Errorf("makespan = %v, want 20s", res.Makespan)
	}
	if res.TasksCompleted != 2 || res.JobsCompleted != 1 {
		t.Errorf("TasksCompleted = %d, JobsCompleted = %d, want 2 and 1", res.TasksCompleted, res.JobsCompleted)
	}
	// The abandoned primary burned node 1's slot from 0 s to the 20 s win.
	if res.SpeculativeWaste != 20*units.Second {
		t.Errorf("SpeculativeWaste = %v, want 20s", res.SpeculativeWaste)
	}
}

func TestSpeculationCancelledWhenPrimaryWins(t *testing.T) {
	// A mild straggler (2×) still triggers a backup under a tight
	// threshold, but here the primary finishes first: the backup must be
	// cancelled, counted as waste, and the task completes exactly once.
	j := sizedJob(0, 2000, 10000)
	obs := &resilienceObserver{}
	res, err := Run(Config{
		Cluster:   testCluster(2, 1),
		Scheduler: rrScheduler{},
		Faults: &FaultPlan{Stragglers: []Straggler{
			{Node: 1, At: 0, Factor: 0.5},
		}},
		Speculation: &Speculation{
			Interval:         units.Second,
			SpeedupThreshold: 1.1,
			MinRemaining:     units.Second,
		},
		Observer: obs,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 2 {
		t.Fatalf("TasksCompleted = %d, want 2", res.TasksCompleted)
	}
	if res.Speculations == 0 {
		t.Fatal("expected at least one backup launch")
	}
	if res.SpeculationWins+res.SpeculationCancels != res.Speculations {
		t.Errorf("wins %d + cancels %d != launches %d",
			res.SpeculationWins, res.SpeculationCancels, res.Speculations)
	}
}

func TestBlacklistingFiresOnThreshold(t *testing.T) {
	// Two crashes with a slow decay push node 1's penalty over the
	// threshold (1.9, not 2: the first crash's point decays slightly over
	// the 2 s between crashes); the rising edge fires exactly one event.
	j := sizedJob(0, 10000, 10000, 10000, 10000)
	obs := &resilienceObserver{}
	res, err := Run(Config{
		Cluster:            testCluster(2, 2),
		Scheduler:          liveRR{},
		Period:             2 * units.Second,
		BlacklistThreshold: 1.9,
		HealthHalfLife:     units.Hour,
		Faults: &FaultPlan{Failures: []NodeFailure{
			{Node: 1, At: units.Second, RecoverAfter: units.Second},
			{Node: 1, At: 3 * units.Second, RecoverAfter: units.Second},
		}},
		Observer: obs,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Blacklistings != 1 || obs.blacklistings != 1 {
		t.Errorf("Blacklistings = %d (observer %d), want 1", res.Blacklistings, obs.blacklistings)
	}
	if res.TasksCompleted != 4 {
		t.Errorf("TasksCompleted = %d, want 4", res.TasksCompleted)
	}
}

func TestStragglerWindowSpansCrashRecovery(t *testing.T) {
	// Interaction: a straggler window [1s, 11s) on node 0 with a crash
	// window [2s, 4s) inside it. The mid-window factor change banks
	// progress (a free checkpoint), the crash loses the rest, and after
	// recovery the node still runs at straggler speed until the window
	// ends. All fault counters must agree with the observer.
	j := sizedJob(0, 10000)
	obs := &resilienceObserver{}
	res, err := Run(Config{
		Cluster:   testCluster(1, 1),
		Scheduler: rrScheduler{},
		Period:    2 * units.Second,
		Faults: &FaultPlan{
			Failures:   []NodeFailure{{Node: 0, At: 2 * units.Second, RecoverAfter: 2 * units.Second}},
			Stragglers: []Straggler{{Node: 0, At: units.Second, Factor: 0.5, Duration: 10 * units.Second}},
		},
		Observer: obs,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	// 0–1 s full speed (1000 MI banked at the 1 s re-pace), 1–2 s at 0.5×
	// lost to the crash, re-placed at 4 s, 4–11 s at 0.5× (3500 MI banked
	// at window end), 5500 MI at full speed → done 16.5 s.
	want := 16*units.Second + 500*units.Millisecond
	if res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Failures != 1 || obs.failed != 1 || obs.recovered != 1 {
		t.Errorf("Failures = %d, observer failed=%d recovered=%d, want 1/1/1",
			res.Failures, obs.failed, obs.recovered)
	}
	if res.FailureEvictions != 1 || obs.evicts != 1 || res.Retries != 1 {
		t.Errorf("FailureEvictions = %d (observer %d), Retries = %d, want 1/1/1",
			res.FailureEvictions, obs.evicts, res.Retries)
	}
	if res.LostWork != units.Second {
		t.Errorf("LostWork = %v, want 1s (the 1–2 s burst)", res.LostWork)
	}
}

func TestRecoveryOfNeverFailedNodeIsNoop(t *testing.T) {
	// White-box: the engine's recovery handler must ignore a recovery for
	// a node that is up (the event surface stays silent), and a second
	// failure while the node is already down must not double-count.
	// Valid FaultPlans cannot express either (Validate rejects
	// overlapping windows), so this guards the engine against plans
	// assembled by future callers bypassing Run.
	obs := &resilienceObserver{}
	e := &Engine{cfg: Config{Cluster: testCluster(2, 1), Observer: obs}, q: eventq.New()}
	for _, n := range e.cfg.Cluster.Nodes {
		e.nodes = append(e.nodes, &nodeState{node: n, speedFactor: 1})
	}
	e.recoverNode(0, units.Second)
	if obs.recovered != 0 {
		t.Errorf("recovery of an up node fired NodeRecovered (%d)", obs.recovered)
	}
	e.failNode(0, 2*units.Second)
	e.failNode(0, 3*units.Second) // already down: must be ignored
	if e.metrics.Failures != 1 || obs.failed != 1 {
		t.Errorf("Failures = %d (observer %d), want 1 — double crash counted twice",
			e.metrics.Failures, obs.failed)
	}
	e.recoverNode(0, 4*units.Second)
	e.recoverNode(0, 5*units.Second) // already up: must be ignored
	if obs.recovered != 1 {
		t.Errorf("NodeRecovered fired %d times, want 1", obs.recovered)
	}
}

func TestTaskFaultDrawDeterministic(t *testing.T) {
	p1, f1 := taskFaultDraw(42, 3, 7, 2)
	p2, f2 := taskFaultDraw(42, 3, 7, 2)
	if p1 != p2 || f1 != f2 {
		t.Error("same (seed, job, task, attempt) gave different draws")
	}
	if p1 < 0 || p1 >= 1 || f1 < 0 || f1 >= 1 {
		t.Errorf("draws outside [0,1): p=%v frac=%v", p1, f1)
	}
	p3, _ := taskFaultDraw(42, 3, 7, 3)
	p4, _ := taskFaultDraw(43, 3, 7, 2)
	if p1 == p3 || p1 == p4 {
		t.Error("attempt/seed salt did not change the draw")
	}
}

func TestPhaseStringsResilience(t *testing.T) {
	if Backoff.String() != "backoff" || Failed.String() != "failed" {
		t.Errorf("phase strings: %v %v", Backoff, Failed)
	}
	if Done.String() != "done" {
		t.Errorf("Done renumbered: %v", Done)
	}
}
