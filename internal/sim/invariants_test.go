package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dsp/internal/cluster"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// invariantObserver checks engine-wide safety properties on every event:
// slot capacity is never exceeded, tasks only start with precedents
// finished (dependency-aware mode), and completions happen exactly once.
type invariantObserver struct {
	t        *testing.T
	slots    int
	running  map[cluster.NodeID]int
	done     map[interface{}]bool
	failures int
}

func newInvariantObserver(t *testing.T, slots int) *invariantObserver {
	return &invariantObserver{
		t:       t,
		slots:   slots,
		running: make(map[cluster.NodeID]int),
		done:    make(map[interface{}]bool),
	}
}

func (o *invariantObserver) Observe(ev Event) {
	switch ev.Kind {
	case TaskStarted:
		o.started(ev.At, ev.Task, ev.Node)
	case TaskPreempted:
		o.running[ev.Node]--
	case TaskCompleted:
		o.completed(ev.At, ev.Task, ev.Node)
	}
}

func (o *invariantObserver) started(now units.Time, ts *TaskState, node cluster.NodeID) {
	o.running[node]++
	if o.running[node] > o.slots {
		o.failures++
		o.t.Errorf("node %d over capacity: %d > %d at %v", node, o.running[node], o.slots, now)
	}
	if !ts.DepsMet() {
		o.failures++
		o.t.Errorf("task %v started before precedents at %v", ts.Key(), now)
	}
	for _, p := range ts.Job.Dag.Parents(ts.Task.ID) {
		ps := ts.Job.Tasks[p]
		if ps.DoneAt > now {
			o.failures++
			o.t.Errorf("task %v started at %v before parent finished at %v", ts.Key(), now, ps.DoneAt)
		}
	}
}

func (o *invariantObserver) completed(now units.Time, ts *TaskState, node cluster.NodeID) {
	o.running[node]--
	if o.running[node] < 0 {
		o.failures++
		o.t.Errorf("node %d running count negative at %v", node, now)
	}
	if o.done[ts.Key()] {
		o.failures++
		o.t.Errorf("task %v completed twice", ts.Key())
	}
	o.done[ts.Key()] = true
}

func TestPropertySimulatorInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := trace.DefaultSpec(4+r.Intn(5), seed)
		spec.TaskScale = 0.02 + r.Float64()*0.03
		spec.MeanTaskSizeMI *= 5 + r.Float64()*20
		w, err := trace.Generate(spec)
		if err != nil {
			return false
		}
		const slots = 4
		obs := newInvariantObserver(t, slots)
		res, err := Run(Config{
			Cluster:    testCluster(2+r.Intn(3), slots),
			Scheduler:  rrScheduler{},
			Preemptor:  pickPreemptor(r),
			Checkpoint: cluster.DefaultCheckpoint(),
			Observer:   obs,
			MaxEvents:  5_000_000,
		}, w)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.TasksCompleted != len(obs.done) {
			t.Logf("seed %d: completed %d but observed %d", seed, res.TasksCompleted, len(obs.done))
			return false
		}
		return obs.failures == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// pickPreemptor alternates between nil and a simple aggressive policy so
// the invariants are exercised with and without preemption.
func pickPreemptor(r *rand.Rand) Preemptor {
	if r.Intn(2) == 0 {
		return nil
	}
	return aggressive{}
}

// aggressive preempts the first running task with the first waiting
// runnable task on every node, every epoch — maximal churn.
type aggressive struct{}

func (aggressive) Name() string { return "aggressive" }
func (aggressive) Epoch(now units.Time, v *View) []Action {
	var out []Action
	for k := 0; k < v.Cluster().Len(); k++ {
		node := cluster.NodeID(k)
		running := v.Running(node)
		if len(running) == 0 {
			continue
		}
		for _, w := range v.Queue(node) {
			if w.DepsMet() {
				out = append(out, Action{Node: node, Victim: running[0], Starter: w})
				break
			}
		}
	}
	return out
}
