package sim

import (
	"testing"

	"dsp/internal/cluster"
	"dsp/internal/units"
)

// countingObserver tallies events.
type countingObserver struct {
	starts, preempts, completes, jobs int
	lastPreemptStarter                *TaskState
}

func (c *countingObserver) Observe(ev Event) {
	switch ev.Kind {
	case TaskStarted:
		c.starts++
	case TaskPreempted:
		c.preempts++
		c.lastPreemptStarter = ev.Starter
	case TaskCompleted:
		c.completes++
	case JobCompleted:
		c.jobs++
	}
}

// observerFunc adapts a closure to the Observer interface for tests.
type observerFunc func(Event)

func (f observerFunc) Observe(ev Event) { f(ev) }

func TestObserverReceivesEvents(t *testing.T) {
	j := sizedJob(0, 10000, 1000)
	obs := &countingObserver{}
	pre := &onceActor{act: func(now units.Time, v *View) []Action {
		return []Action{{Node: 0, Victim: v.Running(0)[0], Starter: v.Queue(0)[0]}}
	}}
	_, err := Run(Config{
		Cluster:    testCluster(1, 1),
		Scheduler:  rrScheduler{},
		Preemptor:  pre,
		Checkpoint: cluster.DefaultCheckpoint(),
		Epoch:      2 * units.Second,
		Observer:   obs,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	// Starts: task A, then starter B via preemption, then A resumes = 3.
	if obs.starts != 3 {
		t.Errorf("starts = %d, want 3", obs.starts)
	}
	if obs.preempts != 1 {
		t.Errorf("preempts = %d, want 1", obs.preempts)
	}
	if obs.completes != 2 {
		t.Errorf("completes = %d, want 2", obs.completes)
	}
	if obs.jobs != 1 {
		t.Errorf("jobs = %d, want 1", obs.jobs)
	}
	if obs.lastPreemptStarter == nil || obs.lastPreemptStarter.Task.ID != 1 {
		t.Error("preempt starter not reported")
	}
}

func TestObserversCompose(t *testing.T) {
	a := &countingObserver{}
	b := &countingObserver{}
	j := sizedJob(0, 1000)
	_, err := Run(Config{
		Cluster:   testCluster(1, 1),
		Scheduler: rrScheduler{},
		Observer:  Observers{a, b},
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if a.starts != 1 || b.starts != 1 || a.jobs != 1 || b.jobs != 1 {
		t.Errorf("composed observers missed events: a=%+v b=%+v", a, b)
	}
}

var _ Observer = Observers{}

func TestObserversSkipNil(t *testing.T) {
	a := &countingObserver{}
	j := sizedJob(0, 1000)
	// Nil entries (common when composing optional exporters) must be
	// skipped, not dereferenced.
	_, err := Run(Config{
		Cluster:   testCluster(1, 1),
		Scheduler: rrScheduler{},
		Observer:  Observers{nil, a, nil, Observers{}},
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if a.starts != 1 || a.jobs != 1 {
		t.Errorf("observer after nil entry missed events: %+v", a)
	}
}

func TestObserverDecisionEvents(t *testing.T) {
	// A forced preemption must surface as an accepted PreemptionConsidered
	// decision plus epoch markers, and the per-run verdict counts must
	// agree with the engine's Result.
	rec := &struct {
		decisions []PreemptionDecision
		epochs    int
		ends      int
	}{}
	obsv := observerFunc(func(ev Event) {
		switch ev.Kind {
		case PreemptionConsidered:
			rec.decisions = append(rec.decisions, ev.Decision)
		case EpochStarted:
			rec.epochs++
		case EpochEnded:
			rec.ends++
		}
	})
	j := sizedJob(0, 10000, 1000)
	pre := &onceActor{act: func(now units.Time, v *View) []Action {
		return []Action{{Node: 0, Victim: v.Running(0)[0], Starter: v.Queue(0)[0], Urgent: true}}
	}}
	res, err := Run(Config{
		Cluster:    testCluster(1, 1),
		Scheduler:  rrScheduler{},
		Preemptor:  pre,
		Checkpoint: cluster.DefaultCheckpoint(),
		Epoch:      2 * units.Second,
		Observer:   obsv,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions != 1 {
		t.Fatalf("fixture expects 1 preemption, got %d", res.Preemptions)
	}
	accepted := 0
	for _, d := range rec.decisions {
		switch d.Verdict {
		case VerdictAccepted, VerdictUrgentOverride:
			accepted++
			if d.Candidate == nil || d.Victim == nil {
				t.Error("accepted decision missing candidate or victim")
			}
		}
	}
	if accepted != res.Preemptions {
		t.Errorf("accepted decisions = %d, want Result.Preemptions = %d", accepted, res.Preemptions)
	}
	// The action was marked urgent, so the verdict must say so.
	if rec.decisions[0].Verdict != VerdictUrgentOverride {
		t.Errorf("verdict = %v, want urgent-override", rec.decisions[0].Verdict)
	}
	if rec.epochs == 0 || rec.epochs != rec.ends {
		t.Errorf("epoch markers unbalanced: %d started, %d ended", rec.epochs, rec.ends)
	}
}

func TestVerdictStrings(t *testing.T) {
	want := map[Verdict]string{
		VerdictAccepted:       "accepted",
		VerdictSuppressedByPP: "suppressed-by-PP",
		VerdictUrgentOverride: "urgent-override",
		VerdictDisorder:       "disorder",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("Verdict(%d).String() = %q, want %q", v, v.String(), s)
		}
	}
	if RequeueBlindTimeout.String() != "blind-timeout" {
		t.Errorf("RequeueBlindTimeout = %q", RequeueBlindTimeout.String())
	}
	if TaskSpanClosed.String() != "TaskSpanClosed" || Replayed.String() != "Replayed" {
		t.Errorf("event kind names out of step with the constants: %v, %v", TaskSpanClosed, Replayed)
	}
	if s := NumEventKinds.String(); s != "event(26)" {
		t.Errorf("out-of-range event kind = %q", s)
	}
}
